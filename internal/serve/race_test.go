//go:build race

package serve

// raceEnabled reports a -race build, whose sync.Pool drops a random
// quarter of what it is given.
const raceEnabled = true
