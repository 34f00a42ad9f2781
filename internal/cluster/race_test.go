//go:build race

package cluster

// raceEnabled reports whether the race detector is on; it allocates on its
// own, so allocation guards skip under it.
const raceEnabled = true
