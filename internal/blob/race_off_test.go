//go:build !race

package blob

const raceEnabled = false
