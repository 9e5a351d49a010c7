//go:build !race

package fl

const raceEnabled = false
