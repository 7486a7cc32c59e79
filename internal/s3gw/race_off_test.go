//go:build !race

package s3gw

const raceEnabled = false
