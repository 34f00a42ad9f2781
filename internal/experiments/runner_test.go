package experiments

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"moespark/internal/parallel"
	"moespark/internal/workload"
)

func TestForEachIndexedCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		var n atomic.Int64
		seen := make([]bool, 100)
		if err := parallel.ForEachIndexed(workers, len(seen), func(i int) error {
			seen[i] = true
			n.Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if n.Load() != 100 {
			t.Errorf("workers=%d ran %d units, want 100", workers, n.Load())
		}
		for i, ok := range seen {
			if !ok {
				t.Errorf("workers=%d skipped index %d", workers, i)
			}
		}
	}
}

func TestForEachIndexedReturnsLowestIndexError(t *testing.T) {
	errBoom := errors.New("boom")
	err := parallel.ForEachIndexed(4, 50, func(i int) error {
		if i == 7 || i == 30 {
			return errBoom
		}
		return nil
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("got %v, want boom", err)
	}
	if err := parallel.ForEachIndexed(3, 0, func(int) error { return errBoom }); err != nil {
		t.Errorf("empty range must not error, got %v", err)
	}
}

// TestParallelRunnerMatchesSerial is the determinism contract of the
// concurrent experiment runner: any worker count reproduces the serial
// results bit-for-bit.
func TestParallelRunnerMatchesSerial(t *testing.T) {
	ctx := quickCtx()
	ctx.MixesPerScenario = 2

	serialCtx := ctx
	serialCtx.Workers = 1
	parallelCtx := ctx
	parallelCtx.Workers = 4

	set, err := standardSchemes(serialCtx)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := workload.Scenarios[:3]
	serial, serialGeo, err := runScenarios(serialCtx, set, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	concurrent, concurrentGeo, err := runScenarios(parallelCtx, set, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, concurrent) {
		t.Errorf("scenario results differ between serial and parallel runners")
	}
	if !reflect.DeepEqual(serialGeo, concurrentGeo) {
		t.Errorf("geomean aggregates differ between serial and parallel runners")
	}
}

// TestPoolAveragesFloatsAndSumsCounters pins the studies' pooling rule:
// floats are summed in stream order and divided once, ints are summed, and
// other fields keep the first stream's value.
func TestPoolAveragesFloatsAndSumsCounters(t *testing.T) {
	type cell struct {
		Name  string
		Value float64
		Count int
	}
	a, b, c := 0.1, 0.2, 0.3
	got := pool([]cell{{"first", a, 1}, {"second", b, 2}, {"third", c, 4}})
	want := cell{"first", (a + b + c) / 3, 7}
	if got != want {
		t.Errorf("pool = %+v, want %+v", got, want)
	}
	if one := pool([]cell{{"only", a, 3}}); one != (cell{"only", a, 3}) {
		t.Errorf("pooling one stream changed it: %+v", one)
	}
}
