//go:build race

package fl

const raceEnabled = true
