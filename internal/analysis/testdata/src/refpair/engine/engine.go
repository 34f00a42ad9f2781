// Package engine is a refpair fixture: engine.go holds the live optimised
// paths, engine_ref.go and engine_ref_test.go the full-scan references that
// must keep matching signatures.
package engine

// Engine is a stand-in for the indexed simulation engine.
type Engine struct {
	items []float64
	top   int
}

// nextEventDt is the live indexed event pick.
func nextEventDt() (float64, bool) {
	return 1, true
}

// drifted is a live function whose reference twin has grown an extra
// result: the pair is broken.
func drifted() int {
	return 0
}

// indexed is the live twin named by an explicit //moevet:refpair directive.
func indexed(xs []float64, k int) int {
	return len(xs) % (k + 1)
}

// indexedBad is a live function whose directive-paired reference takes
// incompatible parameters.
func indexedBad(name string) int {
	return len(name)
}

// scan is the live method twin of (*Engine).refScan.
func (e *Engine) scan() int {
	return e.top
}
