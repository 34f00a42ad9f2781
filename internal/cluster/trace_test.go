package cluster

import (
	"math/rand"
	"testing"

	"moespark/internal/workload"
)

func testNodes(t *testing.T, count int) []*Node {
	t.Helper()
	nodes := make([]*Node, count)
	for i := range nodes {
		nodes[i] = newNode(i, ReferenceNode(), 0)
	}
	return nodes
}

// TestTraceCatchUpAfterLargeGap drives maybeSample across an event gap many
// intervals wide: the trace must emit every interim sample, at exact interval
// timestamps, not just one sample at the far side of the gap.
func TestTraceCatchUpAfterLargeGap(t *testing.T) {
	tr := newTrace(10)
	nodes := testNodes(t, 3)
	tr.maybeSample(0, nodes)   // t=0 sample
	tr.maybeSample(105, nodes) // 10 catch-up samples: 10, 20, ..., 100, plus none beyond
	if got, want := len(tr.Times), 11; got != want {
		t.Fatalf("samples after gap = %d, want %d", got, want)
	}
	for i, at := range tr.Times {
		if want := float64(i) * 10; at != want {
			t.Errorf("sample %d at t=%v, want %v", i, at, want)
		}
		if len(tr.CPU[i]) != 3 || len(tr.MemGB[i]) != 3 || len(tr.NodeIDs[i]) != 3 {
			t.Errorf("sample %d has ragged row widths cpu=%d mem=%d ids=%d",
				i, len(tr.CPU[i]), len(tr.MemGB[i]), len(tr.NodeIDs[i]))
		}
	}
}

// TestTraceIntervalEdges pins the slack handling at interval boundaries: a
// call epsilon before the boundary must not sample, a call within the slack
// of the boundary must.
func TestTraceIntervalEdges(t *testing.T) {
	tr := newTrace(5)
	nodes := testNodes(t, 1)
	tr.maybeSample(0, nodes)
	if len(tr.Times) != 1 {
		t.Fatalf("t=0 samples = %d, want 1", len(tr.Times))
	}
	tr.maybeSample(4.9999, nodes)
	if len(tr.Times) != 1 {
		t.Fatalf("pre-boundary call sampled: %d samples", len(tr.Times))
	}
	tr.maybeSample(5-1e-7, nodes) // within the 1e-6 slack of the boundary
	if len(tr.Times) != 2 {
		t.Fatalf("slack-boundary call did not sample: %d samples", len(tr.Times))
	}
	if tr.Times[1] != 5 {
		t.Errorf("boundary sample recorded at %v, want 5 (the scheduled time)", tr.Times[1])
	}
	tr.maybeSample(5.0001, nodes)
	if len(tr.Times) != 2 {
		t.Fatalf("re-sampled the same boundary: %d samples", len(tr.Times))
	}
}

// TestTraceNextSampleTimeNeverPast ensures the engine's next-event query
// cannot return a sample time in the past (which would stall the event loop).
func TestTraceNextSampleTimeNeverPast(t *testing.T) {
	tr := newTrace(10)
	if got := tr.nextSampleTime(37); got < 37 {
		t.Errorf("nextSampleTime(37) = %v, in the past", got)
	}
}

// TestTraceVaryingNodeCount samples across joins and failures: rows must
// track the alive node set, and NodeIDs must identify the columns.
func TestTraceVaryingNodeCount(t *testing.T) {
	tr := newTrace(10)
	nodes := testNodes(t, 2)
	tr.maybeSample(0, nodes)

	nodes = append(nodes, newNode(2, ReferenceNode(), 10))
	tr.maybeSample(10, nodes)

	nodes[0].state = NodeFailed
	tr.maybeSample(20, nodes)

	widths := []int{2, 3, 2}
	ids := [][]int{{0, 1}, {0, 1, 2}, {1, 2}}
	for i, want := range widths {
		if len(tr.CPU[i]) != want {
			t.Errorf("sample %d width = %d, want %d", i, len(tr.CPU[i]), want)
		}
		for k, id := range ids[i] {
			if tr.NodeIDs[i][k] != id {
				t.Errorf("sample %d column %d = node %d, want %d", i, k, tr.NodeIDs[i][k], id)
			}
		}
	}
}

// TestTraceThroughEngineWithChurn runs a traced open-system simulation with
// a node failure and join, checking the engine keeps sampling through the
// churn and the trace reflects the changing fleet size.
func TestTraceThroughEngineWithChurn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.TraceInterval = 20
	c := New(cfg)
	if err := c.ScheduleNodeEvents(
		NodeEvent{At: 50, Kind: NodeFail, Node: 0},
		NodeEvent{At: 100, Kind: NodeJoin},
	); err != nil {
		t.Fatal(err)
	}
	arrivals, err := workload.PoissonArrivals(8, 0.02, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunOpen(Submissions(arrivals), &fullSpeedScheduler{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || len(res.Trace.Times) == 0 {
		t.Fatal("no trace recorded")
	}
	seen := map[int]bool{}
	for _, row := range res.Trace.NodeIDs {
		seen[len(row)] = true
	}
	if !seen[3] {
		t.Errorf("no sample saw the 3-node fleet after the failure; widths seen: %v", seen)
	}
}
