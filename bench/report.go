package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"moespark/internal/mathx"
)

// endToEnd are the metrics a user of the simulator sees, as BENCHMARK.json
// lists them: host metrics, medians over repetitions, then simulated ones,
// which pool one replay of every input stream and repeat exactly for a seed.
// A simulated bound is about three times the largest spread (interquartile
// range over median) that ten runs with different seeds showed on any
// workload; the host bounds are the largest allowed, 0.25, because the noise
// of a shared 2-vCPU host alone spreads throughput by up to a quarter. Host
// times are CPU times (see cpuTime) scaled to the nominal host (see
// hostScale); wall-clock throughput is printed beside them as a diagnostic.
var endToEnd = []metricDef{
	{Name: "sim_apps_per_cpu_s", Unit: "apps/cpu-s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_kapp", Unit: "MB", Better: "lower", Bound: 0.04},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "stp_per_app", Unit: "ratio", Better: "higher", Bound: 0.035},
	{Name: "antt", Unit: "ratio", Better: "lower", Bound: 0.05},
	{Name: "p50_sojourn_s", Unit: "s", Better: "lower", Bound: 0.07},
	{Name: "p99_sojourn_s", Unit: "s", Better: "lower", Bound: 0.2},
}

// outcomes are simulated outcomes the report prints but BENCHMARK.json leaves
// out, because they read zero on some workloads. error_rate counts apps that
// did not complete, or that belong to a run that errored, against apps
// submitted.
var outcomes = []string{"oom_kills_per_kapp", "lost_work_frac", "error_rate"}

// perLayer are the traced repetition's layer metrics. Layer time is split
// into admission, placement, feedback and engine self time, whose shares of
// the run sum to one.
var perLayer = []metricDef{
	{Name: "workload.gen_s", Unit: "s", Better: "lower", Layer: "workload"},
	{Name: "moe.train_share", Unit: "frac", Better: "lower", Layer: "moe"},
	{Name: "moe.taught", Unit: "count", Better: "higher", Layer: "moe"},
	{Name: "moe.observations", Unit: "count", Better: "higher", Layer: "moe"},
	{Name: "sched.admit_calls", Unit: "count", Better: "lower", Layer: "sched"},
	{Name: "sched.admit_apps", Unit: "count", Better: "higher", Layer: "sched"},
	{Name: "sched.apps_per_wave", Unit: "apps", Better: "higher", Layer: "sched"},
	{Name: "sched.admit_busy_s", Unit: "s", Better: "lower", Layer: "sched"},
	{Name: "sched.admit_share", Unit: "frac", Better: "lower", Layer: "sched"},
	{Name: "sched.admit_p99_us", Unit: "us", Better: "lower", Layer: "sched"},
	{Name: "sched.confident_frac", Unit: "frac", Better: "higher", Layer: "sched"},
	{Name: "sched.schedule_calls", Unit: "count", Better: "lower", Layer: "sched"},
	{Name: "sched.schedule_busy_s", Unit: "s", Better: "lower", Layer: "sched"},
	{Name: "sched.schedule_share", Unit: "frac", Better: "lower", Layer: "sched"},
	{Name: "sched.schedule_p50_us", Unit: "us", Better: "lower", Layer: "sched"},
	{Name: "sched.schedule_p99_us", Unit: "us", Better: "lower", Layer: "sched"},
	{Name: "sched.schedule_idle_frac", Unit: "frac", Better: "lower", Layer: "sched"},
	{Name: "sched.observe_calls", Unit: "count", Better: "lower", Layer: "sched"},
	{Name: "sched.observe_share", Unit: "frac", Better: "lower", Layer: "sched"},
	{Name: "cluster.construct_s", Unit: "s", Better: "lower", Layer: "cluster"},
	{Name: "cluster.self_s", Unit: "s", Better: "lower", Layer: "cluster"},
	{Name: "cluster.self_share", Unit: "frac", Better: "lower", Layer: "cluster"},
	{Name: "cluster.events", Unit: "count", Better: "lower", Layer: "cluster"},
	{Name: "cluster.events_per_app", Unit: "events/app", Better: "lower", Layer: "cluster"},
	{Name: "cluster.self_us_per_event", Unit: "us", Better: "lower", Layer: "cluster"},
	{Name: "cluster.fail_kills", Unit: "count", Better: "lower", Layer: "cluster"},
	{Name: "cluster.migrations", Unit: "count", Better: "lower", Layer: "cluster"},
	{Name: "cluster.lost_work_gb", Unit: "GB", Better: "lower", Layer: "cluster"},
	{Name: "metrics.reduce_s", Unit: "s", Better: "lower", Layer: "metrics"},
	{Name: "go.allocs_per_app", Unit: "allocs/app", Better: "lower", Layer: "go"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower", Layer: "go"},
	{Name: "go.gc_pause_s", Unit: "s", Better: "lower", Layer: "go"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower", Layer: "trace"},
}

const (
	// minReps is the fewest measured repetitions a run makes, two of every
	// input stream; it keeps repeating until its time budget is spent.
	minReps = 2 * inputStreams
	// minSetups is the fewest set-up rounds; set-up repeats for a tenth of
	// the time budget, and setup_s is the median round's scaled CPU time.
	minSetups = 5
)

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// report is everything one workload run measured.
type report struct {
	Workload   string `json:"workload"`
	Why        string `json:"why"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	StreamApps []int  `json:"apps_per_stream"`
	Reps       int    `json:"reps"`
	Setups     int    `json:"setups"`
	Attempted  int    `json:"attempted"`
	Failed     int    `json:"failed"`
	// Fingerprints holds each input stream's simulated fingerprint.
	Fingerprints []string           `json:"fingerprints"`
	Provenance   provenance         `json:"provenance"`
	EndToEnd     map[string]summary `json:"end_to_end"`
	// WallAppsPerS is throughput over wall time: what a user waits for, but
	// on a shared host noisier than sim_apps_per_cpu_s, so it is reported and
	// not bounded. RefRoundS holds the reference round's CPU times, which
	// scale the host metrics to the nominal host (see hostScale).
	WallAppsPerS summary `json:"wall_apps_per_s"`
	RefRoundS    summary `json:"ref_round_cpu_s"`
	// Simulated holds the simulated end-to-end metrics over the pooled
	// streams, PerStream the same metrics stream by stream.
	Simulated map[string]float64   `json:"simulated"`
	PerStream map[string][]float64 `json:"simulated_per_stream"`
	Outcomes  map[string]float64   `json:"outcomes"`
	Layers    map[string]float64   `json:"per_layer,omitempty"`
	Spans     []spanRow            `json:"spans"`
	Checks    []check              `json:"checks"`
}

func (r *report) check(name string, ok bool, detail string) {
	r.Checks = append(r.Checks, check{name, ok, detail})
}

func (r *report) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// value returns a metric's median (host), value (simulated, outcome, layer).
func (r *report) value(name string) (float64, bool) {
	if s, ok := r.EndToEnd[name]; ok {
		return s.Median, true
	}
	for _, m := range []map[string]float64{r.Simulated, r.Outcomes, r.Layers} {
		if v, ok := m[name]; ok {
			return v, true
		}
	}
	return 0, false
}

// repStats are one untraced repetition's host-side measurements.
type repStats struct {
	stream, apps                                         int
	runS, cpuS, allocMB, mallocs, gcs, gcPauseS, reduceS float64
}

// measure runs one workload. Set-up repeats for a tenth of the time budget;
// then untraced repetitions, each after a reference round, cycle through the
// input streams until at least minReps are done and seconds have passed;
// then, when trace is set, one traced repetition replays the first stream.
// tiny selects the workload's test size.
func measure(w spec, seed int64, seconds int, trace, tiny bool) (*report, error) {
	t := newTracer()
	r := &report{
		Workload: w.name, Why: w.why, Seed: seed, Seconds: seconds,
		Provenance: hostProvenance(),
		EndToEnd:   map[string]summary{},
		Simulated:  map[string]float64{},
		PerStream:  map[string][]float64{},
		Outcomes:   map[string]float64{},
	}
	budget := time.Duration(seconds) * time.Second

	var fx *fixture
	var setupS []float64
	var inputs []uint64
	for setupStart := time.Now(); len(setupS) < minSetups || time.Since(setupStart) < budget/10; {
		fx = nil
		runtime.GC()
		start := cpuTime()
		f, err := w.setup(seed, tiny, t)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupS = append(setupS, (cpuTime() - start).Seconds())
		inputs = append(inputs, f.inputHash())
		fx = f
	}
	r.check("setups_identical", identical(inputs), fmt.Sprintf("%d set-ups from seed %d", len(setupS), seed))
	r.Setups = len(setupS)
	for _, s := range fx.streams {
		r.StreamApps = append(r.StreamApps, s.apps)
	}

	var reps []repStats
	var pooled simStats
	var inputGB float64
	fps := make([][]uint64, len(fx.streams))
	var runErr error
	var refS []float64
	for loopStart := time.Now(); len(reps) < minReps || time.Since(loopStart) < budget; {
		k := len(reps) % len(fx.streams)
		s := fx.streams[k]
		runtime.GC()
		refS = append(refS, refRound().Seconds())
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := fx.replay(k, nil)
		runtime.ReadMemStats(&after)
		r.Attempted += s.apps
		if err != nil {
			r.Failed += s.apps
			runErr = fmt.Errorf("input stream %d: %w", k, err)
			break
		}
		if len(fps[k]) == 0 {
			pooled.pool(rep.simStats)
			inputGB += s.inputGB
			for i, v := range rep.headline() {
				r.PerStream[simulated[i]] = append(r.PerStream[simulated[i]], v)
			}
		}
		fps[k] = append(fps[k], rep.fingerprint)
		reps = append(reps, repStats{
			stream:   k,
			apps:     s.apps,
			runS:     rep.measured.Seconds(),
			cpuS:     rep.measuredCPU.Seconds(),
			allocMB:  float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
			mallocs:  float64(after.Mallocs - before.Mallocs),
			gcs:      float64(after.NumGC - before.NumGC),
			gcPauseS: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9,
			reduceS:  rep.reduced.Seconds(),
		})
	}
	r.Reps = len(reps)
	if runErr != nil {
		r.check("all_apps_complete", false, runErr.Error())
	} else {
		r.check("all_apps_complete", true, fmt.Sprintf("%d apps in %d repetitions", r.Attempted, r.Reps))
	}
	repeated := true
	for _, stream := range fps {
		repeated = repeated && len(stream) >= 2 && identical(stream)
		if len(stream) > 0 {
			r.Fingerprints = append(r.Fingerprints, fmt.Sprintf("%016x", stream[0]))
		}
	}
	r.check("reps_identical", repeated, fmt.Sprintf("%d repetitions over %d input streams, fingerprints %v", len(reps), len(fx.streams), r.Fingerprints))

	col := func(get func(repStats) float64) []float64 {
		out := make([]float64, len(reps))
		for i, rs := range reps {
			out[i] = get(rs)
		}
		return out
	}
	scale := hostScale(refS)
	r.RefRoundS = summarize(refS)
	r.EndToEnd["sim_apps_per_cpu_s"] = summarize(col(func(rs repStats) float64 { return float64(rs.apps) / (rs.cpuS * scale) }))
	r.WallAppsPerS = summarize(col(func(rs repStats) float64 { return float64(rs.apps) / rs.runS }))
	for i := range setupS {
		setupS[i] *= scale
	}
	r.EndToEnd["setup_s"] = summarize(setupS)
	r.EndToEnd["alloc_mb_per_kapp"] = summarize(col(func(rs repStats) float64 { return perKApp(rs.allocMB, rs.apps) }))
	for i, v := range pooled.headline() {
		r.Simulated[simulated[i]] = v
	}
	r.Outcomes["oom_kills_per_kapp"] = perKApp(float64(pooled.oomKills), pooled.apps)
	r.Outcomes["lost_work_frac"] = pooled.lostWorkGB / inputGB
	r.Outcomes["error_rate"] = float64(r.Failed) / float64(r.Attempted)

	if trace && r.correct() {
		runtime.GC()
		rep, err := fx.replay(0, t)
		if err != nil {
			return nil, fmt.Errorf("%s traced repetition: %w", w.name, err)
		}
		r.Attempted += fx.streams[0].apps
		r.check("traced_identical", rep.fingerprint == fps[0][0],
			fmt.Sprintf("traced fingerprint %016x", rep.fingerprint))
		var first []float64
		for _, rs := range reps {
			if rs.stream == 0 {
				first = append(first, rs.runS)
			}
		}
		setupTotalS := 0.0
		for _, s := range setupS {
			setupTotalS += s
		}
		r.Layers = layerMetrics(fx, t, rep, pooled, mathx.Median(first), setupTotalS, reps)
	}
	// Read last, so the peak covers set-up and every repetition.
	r.EndToEnd["peak_rss_mb"] = summarize([]float64{peakRSSMB()})
	r.Spans = t.rows()
	return r, nil
}

// identical reports whether every fingerprint equals the first.
func identical(fps []uint64) bool {
	for _, fp := range fps {
		if fp != fps[0] {
			return false
		}
	}
	return true
}

// simulated names the simulated end-to-end metrics in the order headline
// returns them.
var simulated = [4]string{"stp_per_app", "antt", "p50_sojourn_s", "p99_sojourn_s"}

// headline returns the simulated end-to-end metrics: Eq. 1 per app, Eq. 2,
// and the median and 99th-percentile sojourn.
func (st simStats) headline() [4]float64 {
	return [4]float64{
		st.stpSum / float64(st.apps),
		st.anttSum / float64(st.apps),
		mathx.Percentile(st.sojourns, 50),
		mathx.Percentile(st.sojourns, 99),
	}
}

// layerMetrics derives the per-layer metrics from the traced repetition's
// spans, the pooled streams' simulated counters and the untraced
// repetitions' runtime counters.
func layerMetrics(fx *fixture, t *tracer, traced repetition, pooled simStats, untracedS, setupTotalS float64, reps []repStats) map[string]float64 {
	apps := float64(fx.streams[0].apps)
	run := t.span(spanRun, spanRep).total.Seconds()
	admit := t.span(spanAdmit, spanRun)
	schedule := t.span(spanSchedule, spanRun)
	observe := t.span(spanObserve, spanRun)
	self := run - admit.total.Seconds() - schedule.total.Seconds() - observe.total.Seconds()
	gen := t.span(spanGen, spanSetup)
	train := t.span(spanTrain, spanSetup)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	median := func(get func(repStats) float64) float64 {
		xs := make([]float64, len(reps))
		for i, rs := range reps {
			xs[i] = get(rs)
		}
		return mathx.Median(xs)
	}
	m := map[string]float64{
		"workload.gen_s":            ratio(gen.total.Seconds(), float64(gen.count)),
		"moe.train_share":           ratio(train.total.Seconds(), setupTotalS),
		"sched.admit_calls":         float64(admit.count),
		"sched.admit_apps":          float64(t.admitted),
		"sched.apps_per_wave":       ratio(float64(t.admitted), float64(admit.count)),
		"sched.admit_busy_s":        admit.total.Seconds(),
		"sched.admit_share":         ratio(admit.total.Seconds(), run),
		"sched.admit_p99_us":        admit.hist.quantile(0.99) / 1e3,
		"sched.confident_frac":      ratio(float64(t.confident), float64(t.admitted)),
		"sched.schedule_calls":      float64(schedule.count),
		"sched.schedule_busy_s":     schedule.total.Seconds(),
		"sched.schedule_share":      ratio(schedule.total.Seconds(), run),
		"sched.schedule_p50_us":     schedule.hist.quantile(0.50) / 1e3,
		"sched.schedule_p99_us":     schedule.hist.quantile(0.99) / 1e3,
		"sched.schedule_idle_frac":  ratio(float64(t.idleSchedules), float64(schedule.count)),
		"sched.observe_calls":       float64(observe.count),
		"sched.observe_share":       ratio(observe.total.Seconds(), run),
		"cluster.construct_s":       t.span(spanConstruct, spanRep).total.Seconds(),
		"cluster.self_s":            self,
		"cluster.self_share":        ratio(self, run),
		"cluster.events":            float64(schedule.count),
		"cluster.events_per_app":    float64(schedule.count) / apps,
		"cluster.self_us_per_event": ratio(self*1e6, float64(schedule.count)),
		"cluster.fail_kills":        float64(pooled.failKills),
		"cluster.migrations":        float64(pooled.migrations),
		"cluster.lost_work_gb":      pooled.lostWorkGB,
		"metrics.reduce_s":          median(func(rs repStats) float64 { return rs.reduceS }),
		"go.allocs_per_app":         median(func(rs repStats) float64 { return rs.mallocs / float64(rs.apps) }),
		"go.gc_cycles":              median(func(rs repStats) float64 { return rs.gcs }),
		"go.gc_pause_s":             median(func(rs repStats) float64 { return rs.gcPauseS }),
		"trace.overhead_frac":       ratio(traced.measured.Seconds(), untracedS) - 1,
		"moe.taught":                0,
		"moe.observations":          0,
	}
	if learned := fx.streams[0].learned; learned != nil {
		taught, obs := learned()
		m["moe.taught"], m["moe.observations"] = float64(taught), float64(obs)
	}
	return m
}

// layerName is the layer a per-layer metric is printed under; on a workload
// whose Schedule is the benchmark's own driver, placement is the driver's.
func layerName(w spec, d metricDef) string {
	if w.driverPlacement && strings.HasPrefix(d.Name, "sched.schedule_") {
		return "driver"
	}
	return d.Layer
}

// printText writes the human-readable report.
func printText(out io.Writer, w spec, r *report) {
	p := r.Provenance
	dirty := ""
	if p.Dirty {
		dirty = " (dirty)"
	}
	fmt.Fprintf(out, "== %s: %s\n", r.Workload, r.Why)
	fmt.Fprintf(out, "host: nproc=%d GOMAXPROCS=%d %s %s/%s cpu=%q commit=%s%s\n",
		p.NumCPU, p.GOMAXPROCS, p.GoVersion, p.GOOS, p.GOARCH, p.CPUModel, p.Commit, dirty)
	fmt.Fprintf(out, "seed=%d apps/stream=%v reps=%d set-ups=%d attempted=%d failed=%d budget=%ds\n",
		r.Seed, r.StreamApps, r.Reps, r.Setups, r.Attempted, r.Failed, r.Seconds)
	fmt.Fprintf(out, "%-28s %14s %14s %14s %12s  %-10s %-6s %s\n", "end-to-end, host", "median", "q1", "q3", "ci95±", "unit", "better", "bound")
	for _, d := range endToEnd {
		if s, ok := r.EndToEnd[d.Name]; ok {
			fmt.Fprintf(out, "  %-26s %14.6g %14.6g %14.6g %12.4g  %-10s %-6s %g\n", d.Name, s.Median, s.Q1, s.Q3, s.CI95, d.Unit, d.Better, d.Bound)
		}
	}
	for _, d := range []struct {
		name, unit, better string
		s                  summary
	}{{"wall_apps_per_s", "apps/s", "higher", r.WallAppsPerS}, {"ref_round_cpu_s", "s", "lower", r.RefRoundS}} {
		fmt.Fprintf(out, "  %-26s %14.6g %14.6g %14.6g %12.4g  %-10s %-6s %s\n", d.name, d.s.Median, d.s.Q1, d.s.Q3, d.s.CI95, d.unit, d.better, "none")
	}
	fmt.Fprintf(out, "%-28s %14s  %-42s  %-10s %-6s %s\n", "end-to-end, simulated", "pooled", "per input stream", "unit", "better", "bound")
	for _, d := range endToEnd {
		if v, ok := r.Simulated[d.Name]; ok {
			fmt.Fprintf(out, "  %-26s %14.6g  %-42s  %-10s %-6s %g\n", d.Name, v, strings.Join(roundAll(r.PerStream[d.Name]), " "), d.Unit, d.Better, d.Bound)
		}
	}
	fmt.Fprint(out, "outcomes:")
	for _, name := range outcomes {
		fmt.Fprintf(out, " %s=%g", name, r.Outcomes[name])
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "  samples: sim_apps_per_cpu_s=%v wall_apps_per_s=%v ref_round_cpu_s=%v setup_s=%v\n",
		roundAll(r.EndToEnd["sim_apps_per_cpu_s"].Samples), roundAll(r.WallAppsPerS.Samples),
		roundAll(r.RefRoundS.Samples), roundAll(r.EndToEnd["setup_s"].Samples))
	if r.Layers != nil {
		fmt.Fprintf(out, "%-28s %14s  %s\n", "per-layer (traced rep)", "value", "unit")
		for _, d := range perLayer {
			fmt.Fprintf(out, "  %-8s %-26s %14.6g  %s\n", layerName(w, d), d.Name, r.Layers[d.Name], d.Unit)
		}
		fmt.Fprintf(out, "%-40s %10s %12s %12s %12s\n", "spans (parent > name)", "count", "total_s", "p50_us", "p99_us")
		for _, s := range r.Spans {
			fmt.Fprintf(out, "  %-38s %10d %12.6f %12.3f %12.3f\n", s.Parent+" > "+s.Name, s.Count, s.TotalS, s.P50US, s.P99US)
		}
	}
	for _, c := range r.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Fprintf(out, "check %-18s %-6s %s\n", c.Name, status, c.Detail)
	}
}

func roundAll(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.4g", x)
	}
	return out
}

// resultLine is the one-line JSON result the benchmark prints last: the
// end-to-end metrics, or with trace the per-layer ones.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) resultLine(trace bool) ([]byte, error) {
	line := resultLine{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := r.value(d.Name)
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no finite value", d.Name)
		}
		line.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	return json.Marshal(line)
}

// reportFile is the -json output: one or more workload reports.
type reportFile struct {
	Workloads []*report `json:"workloads"`
}

func readReports(path string) (reportFile, error) {
	var f reportFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}
