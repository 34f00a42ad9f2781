package engine

// refOrphan sits in a _ref_test.go file, so it is a reference although only
// the test build compiles it, and it has no live twin.
func refOrphan() int { // want `reference refOrphan has no twin`
	return 0
}
