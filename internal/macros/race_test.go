//go:build race

package macros_test

func init() { raceEnabled = true }
