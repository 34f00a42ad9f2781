package main

import (
	"encoding/json"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"moespark/internal/cluster"
	"moespark/internal/sched"
)

// TestWorkloadsAtTinySize runs every workload end to end at its test size
// (at most 300 apps per input stream; fleet-storm on 64 nodes in 4 racks):
// all correctness checks pass, the timing wrapper leaves the simulation
// bit-identical, the layer shares sum to one, and the result line carries
// exactly the metrics BENCHMARK.json names.
func TestWorkloadsAtTinySize(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := measure(w, 3, 0, true, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.StreamApps) != inputStreams {
				t.Errorf("%d input streams, want %d", len(r.StreamApps), inputStreams)
			}
			for _, apps := range r.StreamApps {
				if apps > 300 {
					t.Errorf("tiny size has %d apps per stream, want at most 300", apps)
				}
			}
			for _, c := range r.Checks {
				if !c.OK {
					t.Errorf("check %s failed: %s", c.Name, c.Detail)
				}
			}
			if !hasCheck(r, "traced_identical") {
				t.Error("no traced repetition was compared with the untraced ones")
			}
			var shares float64
			for _, name := range []string{"sched.admit_share", "sched.schedule_share", "sched.observe_share", "cluster.self_share"} {
				shares += r.Layers[name]
			}
			if math.Abs(shares-1) > 0.01 {
				t.Errorf("layer shares sum to %v, want 1", shares)
			}
			for _, trace := range []bool{false, true} {
				b, err := r.resultLine(trace)
				if err != nil {
					t.Fatal(err)
				}
				var line resultLine
				if err := json.Unmarshal(b, &line); err != nil {
					t.Fatal(err)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if got, exp := sortedKeys(line.Metrics), defNames(want); strings.Join(got, ",") != strings.Join(exp, ",") {
					t.Errorf("trace=%v result metrics %v, want %v", trace, got, exp)
				}
				if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
					t.Errorf("trace=%v result line %+v", trace, line)
				}
			}
		})
	}
}

func hasCheck(r *report, name string) bool {
	for _, c := range r.Checks {
		if c.Name == name {
			return true
		}
	}
	return false
}

func sortedKeys(m map[string]metricValue) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func defNames(defs []metricDef) []string {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.Name
	}
	sort.Strings(names)
	return names
}

// TestSetupIsSeeded checks that a seed fixes the inputs, that another seed
// changes them, and that a seed's input streams differ from each other.
func TestSetupIsSeeded(t *testing.T) {
	for _, w := range workloads {
		setup := func(seed int64) *fixture {
			f, err := w.setup(seed, true, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		if a, b := setup(5).inputHash(), setup(5).inputHash(); a != b {
			t.Errorf("%s: seed 5 gave inputs %x and %x", w.name, a, b)
		}
		if setup(5).inputHash() == setup(6).inputHash() {
			t.Errorf("%s: seeds 5 and 6 gave the same inputs", w.name)
		}
		seen := map[uint64]int{}
		for k, s := range setup(5).streams {
			fp := newFingerprint()
			s.hashInto(fp)
			if j, ok := seen[fp.sum()]; ok {
				t.Errorf("%s: input streams %d and %d are the same", w.name, j, k)
			}
			seen[fp.sum()] = k
		}
	}
}

type plainSched struct{}

func (plainSched) Name() string { return "plain" }
func (plainSched) Prepare(*cluster.Cluster, *cluster.App) cluster.ProfilePlan {
	return cluster.ProfilePlan{}
}
func (plainSched) Schedule(*cluster.Cluster) {}

type batchSched struct{ plainSched }

func (batchSched) PrepareBatch(_ *cluster.Cluster, apps []*cluster.App) []cluster.ProfilePlan {
	return make([]cluster.ProfilePlan, len(apps))
}

type observeSched struct{ plainSched }

func (observeSched) Observe(*cluster.Cluster, *cluster.Executor, cluster.ExecOutcome) {}

// TestTraceSchedulerFaces checks that the wrapper has PrepareBatch and
// Observe exactly when the wrapped scheduler does, since the engine takes a
// different path on each.
func TestTraceSchedulerFaces(t *testing.T) {
	for _, s := range []cluster.Scheduler{
		plainSched{}, batchSched{}, observeSched{}, &packingDriver{},
		sched.NewMoE(nil, rand.New(rand.NewSource(1))),
		sched.NewPriority(sched.NewMoE(nil, rand.New(rand.NewSource(1))), true),
	} {
		wrapped := traceScheduler(s, newTracer())
		_, batch := s.(batchPreparer)
		_, wbatch := wrapped.(batchPreparer)
		_, observe := s.(cluster.Observer)
		_, wobserve := wrapped.(cluster.Observer)
		if batch != wbatch || observe != wobserve {
			t.Errorf("%T: PrepareBatch %v->%v, Observe %v->%v", s, batch, wbatch, observe, wobserve)
		}
	}
}

// TestPerturbedFingerprintFailsCheck checks that the fingerprint sees a
// one-ulp change to one app's completion time and a one-count change to a
// kill counter, and that a mismatch fails the run.
func TestPerturbedFingerprintFailsCheck(t *testing.T) {
	w, err := workloadByName("moe-stream")
	if err != nil {
		t.Fatal(err)
	}
	fx, err := w.setup(1, true, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	s := fx.streams[0].sims[0]
	c, err := s.build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunOpen(s.subs, s.sched())
	if err != nil {
		t.Fatal(err)
	}
	fingerprintOf := func() uint64 {
		var st simStats
		fp := newFingerprint()
		if err := st.add(fp, c, res); err != nil {
			t.Fatal(err)
		}
		return fp.sum()
	}
	base := fingerprintOf()
	if again := fingerprintOf(); !identical([]uint64{base, again}) {
		t.Fatalf("fingerprint not stable: %x then %x", base, again)
	}
	app := res.Apps[len(res.Apps)/2]
	app.DoneTime = math.Nextafter(app.DoneTime, math.Inf(1))
	perturbed := fingerprintOf()
	res.OOMKills++
	counted := fingerprintOf()
	for _, fp := range []uint64{perturbed, counted} {
		if identical([]uint64{base, fp}) {
			t.Errorf("perturbation left the fingerprint at %x", fp)
		}
	}
	r := &report{}
	r.check("reps_identical", identical([]uint64{base, base, perturbed}), "")
	if r.correct() {
		t.Error("a run whose repetitions disagree passed its checks")
	}
}

// TestHistogramQuantiles checks that p50 and p99 from the log2 histogram
// lie within one bucket of the exact order statistic.
func TestHistogramQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, gen := range []func() time.Duration{
		func() time.Duration { return time.Duration(rng.Int63n(1000)) },
		func() time.Duration { return time.Duration(math.Exp(rng.Float64() * 20)) },
		func() time.Duration { return 1500 * time.Nanosecond },
	} {
		var h histogram
		xs := make([]float64, 2000)
		for i := range xs {
			d := gen()
			h.add(d)
			xs[i] = float64(d)
		}
		sort.Float64s(xs)
		for _, q := range []float64{0.50, 0.99} {
			exact := xs[int(math.Ceil(q*float64(len(xs))))-1]
			est := h.quantile(q)
			if d := bucketOf(est) - bucketOf(exact); d < -1 || d > 1 {
				t.Errorf("q%.2f: estimate %v is %d buckets from exact %v", q, est, d, exact)
			}
		}
	}
	var empty histogram
	if empty.quantile(0.5) != 0 {
		t.Error("empty histogram has a non-zero quantile")
	}
}

func bucketOf(ns float64) int { return bits.Len64(uint64(ns)) }

func TestSummarize(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.Median != 3 || s.Q1 != 2 || s.Q3 != 4 {
		t.Errorf("odd count: median %v q1 %v q3 %v, want 3 2 4", s.Median, s.Q1, s.Q3)
	}
	if s.CI95 <= 0 {
		t.Errorf("CI95 half-width %v, want > 0", s.CI95)
	}
	s = summarize([]float64{4, 1, 3, 2})
	if s.Median != 2.5 || s.Q1 != 1.75 || s.Q3 != 3.25 {
		t.Errorf("even count: median %v q1 %v q3 %v, want 2.5 1.75 3.25", s.Median, s.Q1, s.Q3)
	}
	if s = summarize([]float64{7}); s.Median != 7 || s.CI95 != 0 {
		t.Errorf("one sample: %+v", s)
	}
}

func TestPerKApp(t *testing.T) {
	for _, c := range []struct{ total, apps, want float64 }{
		{35, 5000, 7}, {0, 10, 0}, {2, 1000, 2}, {1, 250, 4},
	} {
		if got := perKApp(c.total, int(c.apps)); got != c.want {
			t.Errorf("perKApp(%v, %v) = %v, want %v", c.total, c.apps, got, c.want)
		}
	}
}

// TestHostScale checks that host times scale by the nominal reference round
// over the run's median one, and that every reference round does the same
// work without allocating, so the garbage collector never runs inside one.
func TestHostScale(t *testing.T) {
	if got := hostScale([]float64{2 * refNominalS, 9, refNominalS}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("scale with median twice nominal = %v, want 0.5", got)
	}
	if got := hostScale([]float64{refNominalS / 2, refNominalS / 2}); math.Abs(got-2) > 1e-12 {
		t.Errorf("scale with median half nominal = %v, want 2", got)
	}
	var sums [2]float64
	for i := range sums {
		refRound()
		before := refState.sink
		if d := refRound(); d <= 0 {
			t.Errorf("reference round took %v of CPU time", d)
		}
		sums[i] = refState.sink - before
	}
	if sums[0] != sums[1] {
		t.Errorf("reference rounds computed %v and %v", sums[0], sums[1])
	}
	// sort.Sort boxes the record slice once per call.
	if allocs := testing.AllocsPerRun(2, func() { refRound() }); allocs > 2 {
		t.Errorf("a reference round made %v allocations, want at most 2", allocs)
	}
}

func TestBoundRule(t *testing.T) {
	lower := metricDef{Better: "lower", Bound: 0.1}
	higher := metricDef{Better: "higher", Bound: 0.1}
	exact := metricDef{Better: "lower", Bound: 0}
	for _, c := range []struct {
		m             metricDef
		parent, child float64
		want          bool
	}{
		{lower, 100, 109, false},
		{lower, 100, 111, true},
		{lower, 100, 50, false},
		{higher, 100, 91, false},
		{higher, 100, 89, true},
		{higher, 100, 150, false},
		{lower, 0, 0, false},
		{lower, 0, 1e-12, true},
		{higher, 0, -1e-12, true},
		{higher, 0, 1, false},
		{exact, 0.02, 0.02, false},
		{exact, 0.02, 0.0201, true},
	} {
		if got := c.m.regressed(c.parent, c.child); got != c.want {
			t.Errorf("%+v: %v -> %v regressed=%v, want %v", c.m, c.parent, c.child, got, c.want)
		}
	}
}

// TestPooledStreams checks that pooling weighs every app once: STP and ANTT
// per app and the sojourn percentiles over two streams equal those of one
// stream holding both.
func TestPooledStreams(t *testing.T) {
	a := simStats{apps: 2, stpSum: 1.5, anttSum: 3, sojourns: []float64{10, 30}, failKills: 1, lostWorkGB: 2}
	b := simStats{apps: 3, stpSum: 1.0, anttSum: 9, sojourns: []float64{20, 40, 50}, migrations: 4}
	var pooled simStats
	pooled.pool(a)
	pooled.pool(b)
	want := simStats{apps: 5, stpSum: 2.5, anttSum: 12, sojourns: []float64{10, 30, 20, 40, 50}, failKills: 1, migrations: 4, lostWorkGB: 2}
	if got, exp := pooled.headline(), want.headline(); got != exp {
		t.Errorf("pooled headline %v, want %v", got, exp)
	}
	if h := pooled.headline(); h[0] != 0.5 || h[1] != 2.4 || h[2] != 30 {
		t.Errorf("pooled stp, antt, p50 = %v, %v, %v; want 0.5, 2.4, 30", h[0], h[1], h[2])
	}
	if pooled.failKills != 1 || pooled.migrations != 4 || pooled.lostWorkGB != 2 {
		t.Errorf("pooled counters %+v", pooled)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric and
// workload tables in this package in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(cfg.Workloads), len(workloads))
	}
	for i, w := range cfg.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %+v in BENCHMARK.json, %q (%s) here", i, w, workloads[i].name, workloads[i].why)
		}
	}
	if len(cfg.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(cfg.EndToEnd), len(endToEnd))
	}
	for i, m := range cfg.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v here", i, m, d)
		}
	}
	if len(cfg.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(cfg.PerLayer), len(perLayer))
	}
	for i, m := range cfg.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v here", i, m, d)
		}
	}
}

// TestNamesNothingPlannedForDeletion enforces the compatibility rule: the
// benchmark sets or names nothing the roadmap plans to delete, so deleting
// it never needs a benchmark edit and a flipped default shows in the numbers.
func TestNamesNothingPlannedForDeletion(t *testing.T) {
	banned := regexp.MustCompile(`\b(Shards|FleetAwareSizing|ReleaseForeignMem|RefreshFleetSizing|NoBatchPrepare|WithoutMemo|DisableMemo|SetLinearGate|BatchScheduler|BatchEstimator|BatchPredictor|Epochs|ShardStats)\b`)
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if m := banned.Find(b); m != nil {
			t.Errorf("%s names %s", f, m)
		}
	}
}
