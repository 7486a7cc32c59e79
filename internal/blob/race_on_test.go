//go:build race

package blob

const raceEnabled = true
