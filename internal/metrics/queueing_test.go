package metrics

import (
	"math"
	"math/rand"
	"testing"

	"moespark/internal/cluster"
	"moespark/internal/sched"
	"moespark/internal/workload"
)

// mkApp builds a completed app with the given timestamps.
func mkApp(t *testing.T, submit, start, done float64) *cluster.App {
	t.Helper()
	b, err := workload.Find("HB.Sort")
	if err != nil {
		t.Fatal(err)
	}
	return &cluster.App{
		Job:        workload.Job{Bench: b, InputGB: 10},
		SubmitTime: submit, ReadyTime: start, StartTime: start, DoneTime: done,
		State: cluster.StateDone,
	}
}

func TestQueueingBasics(t *testing.T) {
	res := &cluster.Result{
		Apps: []*cluster.App{
			mkApp(t, 0, 10, 100),    // wait 10, sojourn 100
			mkApp(t, 50, 80, 250),   // wait 30, sojourn 200
			mkApp(t, 100, 150, 400), // wait 50, sojourn 300
		},
		MakespanSec: 400,
	}
	q, err := Queueing(res, 100)
	if err != nil {
		t.Fatal(err)
	}
	if q.Apps != 3 {
		t.Errorf("apps %d", q.Apps)
	}
	if math.Abs(q.MeanWaitSec-30) > 1e-9 {
		t.Errorf("mean wait %v, want 30", q.MeanWaitSec)
	}
	if math.Abs(q.MaxWaitSec-50) > 1e-9 {
		t.Errorf("max wait %v, want 50", q.MaxWaitSec)
	}
	if math.Abs(q.MeanSojournSec-200) > 1e-9 {
		t.Errorf("mean sojourn %v, want 200", q.MeanSojournSec)
	}
	if math.Abs(q.P50SojournSec-200) > 1e-9 {
		t.Errorf("p50 %v, want 200", q.P50SojournSec)
	}
	if q.P95SojournSec <= q.P50SojournSec || q.P99SojournSec < q.P95SojournSec {
		t.Errorf("percentiles not ordered: p50=%v p95=%v p99=%v", q.P50SojournSec, q.P95SojournSec, q.P99SojournSec)
	}
	if math.Abs(q.MaxSojournSec-300) > 1e-9 {
		t.Errorf("max sojourn %v, want 300", q.MaxSojournSec)
	}
	// 3 jobs over 400s span.
	want := 3.0 / 400 * 3600
	if math.Abs(q.ThroughputJobsPerHour-want) > 1e-9 {
		t.Errorf("throughput %v, want %v", q.ThroughputJobsPerHour, want)
	}
	// Windows: done at 100, 250, 400 with 100s windows; each window covers
	// (start, end], so the boundary completions at 100 and 400 credit the
	// windows ending there.
	if len(q.Windows) != 4 {
		t.Fatalf("%d windows, want 4", len(q.Windows))
	}
	counts := []int{1, 0, 1, 1}
	for i, w := range q.Windows {
		if w.Completed != counts[i] {
			t.Errorf("window %d completed %d, want %d", i, w.Completed, counts[i])
		}
		wantRate := float64(counts[i]) / 100 * 3600
		if math.Abs(w.JobsPerHour-wantRate) > 1e-9 {
			t.Errorf("window %d rate %v, want %v", i, w.JobsPerHour, wantRate)
		}
	}
}

func TestQueueingPartialFinalWindow(t *testing.T) {
	// lastDone=400 with 300s windows: the tail window covers only 300-400,
	// and its rate must use the actual 100s span, not the nominal 300s.
	res := &cluster.Result{
		Apps: []*cluster.App{
			mkApp(t, 0, 10, 100),
			mkApp(t, 50, 80, 250),
			mkApp(t, 100, 150, 400),
		},
	}
	q, err := Queueing(res, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Windows) != 2 {
		t.Fatalf("%d windows, want 2", len(q.Windows))
	}
	last := q.Windows[1]
	if last.EndSec != 400 {
		t.Errorf("final window ends at %v, want clamped to 400", last.EndSec)
	}
	if last.Completed != 1 {
		t.Errorf("final window completed %d, want 1", last.Completed)
	}
	want := 1.0 / 100 * 3600
	if math.Abs(last.JobsPerHour-want) > 1e-9 {
		t.Errorf("final window rate %v, want %v (actual span, not nominal)", last.JobsPerHour, want)
	}
}

func TestQueueingRejectsUnfinished(t *testing.T) {
	a := mkApp(t, 0, 10, 100)
	a.DoneTime = -1
	if _, err := Queueing(&cluster.Result{Apps: []*cluster.App{a}}, 0); err == nil {
		t.Error("unfinished app must error")
	}
	if _, err := Queueing(&cluster.Result{}, 0); err == nil {
		t.Error("empty run must error")
	}
}

func TestQueueingNoWindowsWhenDisabled(t *testing.T) {
	res := &cluster.Result{Apps: []*cluster.App{mkApp(t, 0, 10, 100)}}
	q, err := Queueing(res, 0)
	if err != nil {
		t.Fatal(err)
	}
	if q.Windows != nil {
		t.Errorf("windows %v, want none", q.Windows)
	}
}

// TestQueueingRejectsBadWindow: a window must be finite and non-negative.
// Before the check, +Inf returned one window starting at NaN (0·Inf), and
// NaN or a negative window silently meant "no windows".
func TestQueueingRejectsBadWindow(t *testing.T) {
	res := &cluster.Result{Apps: []*cluster.App{mkApp(t, 0, 10, 100)}}
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -math.SmallestNonzeroFloat64} {
		if q, err := Queueing(res, w); err == nil {
			t.Errorf("window %v accepted: %+v", w, q)
		}
		if qs, err := QueueingByClass(res, w); err == nil {
			t.Errorf("window %v accepted by class: %+v", w, qs)
		}
	}
	for _, w := range []float64{0, 50, math.MaxFloat64} {
		if _, err := Queueing(res, w); err != nil {
			t.Errorf("window %v rejected: %v", w, err)
		}
	}
}

// TestThroughputWindowBoundaries is the regression table for the two window
// bugs: completions landing exactly on a window boundary were credited to
// the *following* window even though the earlier window's EndSec claimed to
// cover them, and windows always opened at t=0 so late-starting streams
// diluted the first windows.
func TestThroughputWindowBoundaries(t *testing.T) {
	cases := []struct {
		name      string
		submits   []float64
		dones     []float64
		windowSec float64
		wantStart []float64 // StartSec per window
		wantEnd   []float64
		wantCount []int
	}{
		{
			name:    "boundary completion credits earlier window",
			submits: []float64{0, 0}, dones: []float64{100, 150},
			windowSec: 100,
			wantStart: []float64{0, 100}, wantEnd: []float64{100, 150},
			wantCount: []int{1, 1},
		},
		{
			name:    "late stream opens at first submission",
			submits: []float64{1000, 1100}, dones: []float64{1050, 1250},
			windowSec: 100,
			wantStart: []float64{1000, 1100, 1200}, wantEnd: []float64{1100, 1200, 1250},
			wantCount: []int{1, 0, 1},
		},
		{
			name:    "every completion on a boundary",
			submits: []float64{200, 200, 200}, dones: []float64{300, 400, 500},
			windowSec: 100,
			wantStart: []float64{200, 300, 400}, wantEnd: []float64{300, 400, 500},
			wantCount: []int{1, 1, 1},
		},
		{
			name:    "single window covers everything",
			submits: []float64{50}, dones: []float64{60},
			windowSec: 600,
			wantStart: []float64{50}, wantEnd: []float64{60},
			wantCount: []int{1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			apps := make([]*cluster.App, len(tc.submits))
			for i := range apps {
				apps[i] = mkApp(t, tc.submits[i], tc.submits[i], tc.dones[i])
			}
			q, err := Queueing(&cluster.Result{Apps: apps}, tc.windowSec)
			if err != nil {
				t.Fatal(err)
			}
			if len(q.Windows) != len(tc.wantCount) {
				t.Fatalf("%d windows, want %d: %+v", len(q.Windows), len(tc.wantCount), q.Windows)
			}
			total := 0
			for i, w := range q.Windows {
				if w.StartSec != tc.wantStart[i] || w.EndSec != tc.wantEnd[i] {
					t.Errorf("window %d spans [%v, %v], want [%v, %v]",
						i, w.StartSec, w.EndSec, tc.wantStart[i], tc.wantEnd[i])
				}
				if w.Completed != tc.wantCount[i] {
					t.Errorf("window %d completed %d, want %d", i, w.Completed, tc.wantCount[i])
				}
				total += w.Completed
			}
			if total != len(apps) {
				t.Errorf("windows cover %d completions, want %d", total, len(apps))
			}
		})
	}
}

// TestQueueingByClass groups a mixed run into per-class metrics.
func TestQueueingByClass(t *testing.T) {
	lat := workload.Class{Name: "latency", Weight: 4}
	batch := workload.Class{Name: "batch", Weight: 1, Preemptible: true}
	a1 := mkApp(t, 0, 10, 100) // latency: wait 10, sojourn 100
	a1.Class = lat
	a2 := mkApp(t, 0, 50, 300) // batch: wait 50, sojourn 300
	a2.Class = batch
	a2.PreemptKills = 2
	a3 := mkApp(t, 20, 40, 120) // latency: wait 20, sojourn 100
	a3.Class = lat

	qs, err := QueueingByClass(&cluster.Result{Apps: []*cluster.App{a2, a1, a3}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 2 {
		t.Fatalf("%d classes, want 2", len(qs))
	}
	// Ordered by descending weight.
	if qs[0].Class != "latency" || qs[1].Class != "batch" {
		t.Fatalf("class order %q, %q; want latency first", qs[0].Class, qs[1].Class)
	}
	if qs[0].Apps != 2 || qs[1].Apps != 1 {
		t.Errorf("class sizes %d/%d, want 2/1", qs[0].Apps, qs[1].Apps)
	}
	if math.Abs(qs[0].MeanWaitSec-15) > 1e-9 {
		t.Errorf("latency mean wait %v, want 15", qs[0].MeanWaitSec)
	}
	if math.Abs(qs[0].MeanSojournSec-100) > 1e-9 {
		t.Errorf("latency mean sojourn %v, want 100", qs[0].MeanSojournSec)
	}
	if qs[1].PreemptKills != 2 || qs[0].PreemptKills != 0 {
		t.Errorf("preempt kills %d/%d, want 0 latency, 2 batch", qs[0].PreemptKills, qs[1].PreemptKills)
	}
	if !qs[1].Preemptible || qs[1].Weight != 1 {
		t.Errorf("batch class definition lost: %+v", qs[1])
	}
	if _, err := QueueingByClass(&cluster.Result{}, 0); err == nil {
		t.Error("empty run must error")
	}
}

// TestQueueingOnRealOpenRun exercises the full path: Poisson arrivals through
// the event engine into the queueing metrics.
func TestQueueingOnRealOpenRun(t *testing.T) {
	arrivals, err := workload.PoissonArrivals(12, 1.0/60, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.New(cluster.DefaultConfig())
	res, err := c.RunOpen(cluster.Submissions(arrivals), sched.NewPairwise())
	if err != nil {
		t.Fatal(err)
	}
	q, err := Queueing(res, 300)
	if err != nil {
		t.Fatal(err)
	}
	if q.Apps != 12 {
		t.Errorf("apps %d, want 12", q.Apps)
	}
	if q.MeanSojournSec <= 0 || q.ThroughputJobsPerHour <= 0 {
		t.Errorf("degenerate metrics: %+v", q)
	}
	total := 0
	for _, w := range q.Windows {
		total += w.Completed
	}
	if total != 12 {
		t.Errorf("windows cover %d completions, want 12", total)
	}
}
