//go:build race

package main

// raceEnabled reports a -race build, where sync.Pool drops items at
// random and allocation counts no longer repeat exactly.
const raceEnabled = true
