package parallel

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// Under the determinism contract (index-addressed outputs, per-index
// inputs) the outputs must equal the serial loop's at every worker count.
func TestForEachIndexedMatchesSerialLoop(t *testing.T) {
	work := func(i int) uint64 {
		x := uint64(i)*0x9e3779b97f4a7c15 + 1
		for k := 0; k < 50; k++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		return x
	}
	for _, n := range []int{0, 1, 7, 1000} {
		want := make([]uint64, n)
		for i := range want {
			want[i] = work(i)
		}
		for _, workers := range []int{1, 2, 8} {
			got := make([]uint64, n)
			var calls atomic.Int64
			err := ForEachIndexed(workers, n, func(i int) error {
				calls.Add(1)
				got[i] = work(i)
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if c := calls.Load(); c != int64(n) {
				t.Errorf("n=%d workers=%d: fn ran %d times, want %d", n, workers, c, n)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d workers=%d: slot %d is %d, serial loop gives %d", n, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// When several indices fail, the error returned is the lowest index's, the
// one the serial loop would have reported first, whatever order the workers
// reach them in.
func TestForEachIndexedReturnsLowestIndexError(t *testing.T) {
	failing := map[int]bool{3: true, 40: true, 41: true, 900: true}
	for _, workers := range []int{1, 2, 8} {
		for rep := 0; rep < 20; rep++ {
			err := ForEachIndexed(workers, 1000, func(i int) error {
				if failing[i] {
					return fmt.Errorf("index %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != "index 3" {
				t.Fatalf("workers=%d: got error %v, want index 3's", workers, err)
			}
		}
	}
	sentinel := errors.New("only")
	if err := ForEachIndexed(8, 1, func(int) error { return sentinel }); err != sentinel {
		t.Errorf("single failing index: got %v, want the sentinel", err)
	}
}

// A non-positive count runs nothing, at any worker count.
func TestForEachIndexedNonPositiveCountNeverCallsFn(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		for _, workers := range []int{0, 1, 2, 8} {
			err := ForEachIndexed(workers, n, func(i int) error {
				t.Errorf("n=%d workers=%d: fn called with %d", n, workers, i)
				return nil
			})
			if err != nil {
				t.Errorf("n=%d workers=%d: %v", n, workers, err)
			}
		}
	}
}
