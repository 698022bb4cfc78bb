//go:build race

package masta

// raceEnabled mirrors the -race build tag; see race_off_test.go.
const raceEnabled = true
