package experiments

import "runtime"

// workers resolves the experiment worker-pool width: Context.Workers when
// set, else one worker per available CPU.
func (c Context) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}
