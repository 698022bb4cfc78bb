//go:build !race

package masta

// raceEnabled mirrors the -race build tag: allocation-count assertions
// are meaningless under the race detector, where sync.Pool drops items
// at random so pooled workspaces are re-allocated.
const raceEnabled = false
