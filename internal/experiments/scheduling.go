package experiments

import (
	"fmt"
	"math/rand"

	"moespark/internal/cluster"
	"moespark/internal/memfunc"
	"moespark/internal/metrics"
	"moespark/internal/sched"
	"moespark/internal/workload"
)

// SchemeResult aggregates one scheme's performance over a scenario's mixes.
type SchemeResult struct {
	Scheme string
	metrics.Aggregate
}

// ScenarioResult is one Table 3 scenario evaluated under several schemes.
type ScenarioResult struct {
	Label   string
	Apps    int
	Schemes []SchemeResult
}

// Fig6Result reproduces Figure 6: normalized STP and ANTT reduction across
// the ten runtime scenarios for Pairwise, Quasar, MoE (ours) and Oracle.
type Fig6Result struct {
	Scenarios []ScenarioResult
	// Geomean per scheme across scenarios (the paper's headline row).
	Geomean map[string]metrics.Aggregate
}

// standardSchemes is Figure 6's comparison: the open-system schemes without
// the isolated baseline, plus the ground-truth Oracle.
func standardSchemes(ctx Context) (schemeSet, error) {
	set, err := openSystemSchemes(ctx, 61, 62)
	if err != nil {
		return nil, err
	}
	return append(set[1:], scheme{"Oracle", func(int64) *sched.Dispatcher { return sched.NewOracle() }}), nil
}

// runScenarios evaluates each scheme on MixesPerScenario mixes per scenario,
// one grid unit per (scenario, mix), and aggregates each scheme's
// comparisons per scenario and, across all scenarios, into its geomean.
func runScenarios(ctx Context, set schemeSet, scenarios []workload.Scenario) ([]ScenarioResult, map[string]metrics.Aggregate, error) {
	cmps, err := runGrid(ctx, grid{
		points: len(scenarios), streams: ctx.MixesPerScenario, cells: len(set),
		seed: func(si, mix int) int64 { return ctx.Seed*1_000_003 + int64(si)*1009 + int64(mix) },
		draw: func(si int, seed int64) (env, error) {
			return env{cfg: ctx.Cfg, jobs: workload.RandomMix(scenarios[si], rand.New(rand.NewSource(seed)))}, nil
		},
	}, func(si, ni int, e env, seed int64) (metrics.Comparison, error) {
		c, res, err := e.replay(set[ni].salted(seed))
		if err != nil {
			return metrics.Comparison{}, fmt.Errorf("experiments: %s under %s: %w", scenarios[si].Label, set[ni].name, err)
		}
		run, err := metrics.FromResult(c, res)
		if err != nil {
			return metrics.Comparison{}, err
		}
		return metrics.Compare(run, metrics.SerialBaseline(c, e.jobs)), nil
	})
	if err != nil {
		return nil, nil, err
	}
	out := make([]ScenarioResult, 0, len(scenarios))
	all := make([][]metrics.Comparison, len(set))
	for si, sc := range scenarios {
		sr := ScenarioResult{Label: sc.Label, Apps: sc.Apps}
		for ni, s := range set {
			all[ni] = append(all[ni], cmps[si][ni]...)
			agg := metrics.AggregateComparisons(cmps[si][ni])
			sr.Schemes = append(sr.Schemes, SchemeResult{Scheme: s.name, Aggregate: agg})
		}
		out = append(out, sr)
	}
	geo := map[string]metrics.Aggregate{}
	for ni, s := range set {
		geo[s.name] = metrics.AggregateComparisons(all[ni])
	}
	return out, geo, nil
}

// Fig6 runs the headline comparison.
func Fig6(ctx Context) (Fig6Result, error) {
	ctx = ctx.withDefaults()
	set, err := standardSchemes(ctx)
	if err != nil {
		return Fig6Result{}, err
	}
	scenarios, geo, err := runScenarios(ctx, set, workload.Scenarios)
	if err != nil {
		return Fig6Result{}, err
	}
	return Fig6Result{Scenarios: scenarios, Geomean: geo}, nil
}

// Tables renders the STP and ANTT panels of Figure 6.
func (r Fig6Result) Tables() []Table {
	stp := Table{
		Title:   "Figure 6a: normalized STP per scenario",
		Header:  []string{"scenario", "apps", "Pairwise", "Quasar", "MoE(ours)", "Oracle", "ours/oracle"},
		Caption: "Paper: ours 8.69x geomean, 83.9% of Oracle, 1.28x over Quasar.",
	}
	antt := Table{
		Title:  "Figure 6b: ANTT reduction % per scenario",
		Header: []string{"scenario", "apps", "Pairwise", "Quasar", "MoE(ours)", "Oracle", "ours/oracle"},
	}
	row := func(sr ScenarioResult, stpPanel bool) []string {
		cells := []string{sr.Label, fmt.Sprintf("%d", sr.Apps)}
		var ours, oracle float64
		for _, s := range sr.Schemes {
			v := s.NormalizedSTP
			if !stpPanel {
				v = s.ANTTReductionPct
			}
			cells = append(cells, f2(v))
			if s.Scheme == "MoE" {
				ours = v
			}
			if s.Scheme == "Oracle" {
				oracle = v
			}
		}
		ratio := "-"
		if oracle != 0 {
			ratio = f2(ours / oracle)
		}
		return append(cells, ratio)
	}
	for _, sr := range r.Scenarios {
		stp.Rows = append(stp.Rows, row(sr, true))
		antt.Rows = append(antt.Rows, row(sr, false))
	}
	geoRow := func(stpPanel bool) []string {
		cells := []string{"geomean", "-"}
		var ours, oracle float64
		for _, name := range []string{"Pairwise", "Quasar", "MoE", "Oracle"} {
			agg := r.Geomean[name]
			v := agg.NormalizedSTP
			if !stpPanel {
				v = agg.ANTTReductionPct
			}
			cells = append(cells, f2(v))
			if name == "MoE" {
				ours = v
			}
			if name == "Oracle" {
				oracle = v
			}
		}
		ratio := "-"
		if oracle != 0 {
			ratio = f2(ours / oracle)
		}
		return append(cells, ratio)
	}
	stp.Rows = append(stp.Rows, geoRow(true))
	antt.Rows = append(antt.Rows, geoRow(false))
	return []Table{stp, antt}
}

// Fig9Result compares the MoE against unified single-model baselines.
type Fig9Result struct {
	Scenarios []ScenarioResult
	Geomean   map[string]metrics.Aggregate
}

// Fig9 runs the unified-model comparison (Figure 9).
func Fig9(ctx Context) (Fig9Result, error) {
	ctx = ctx.withDefaults()
	moeModel, _, err := trainedMoE(ctx, nil, 91)
	if err != nil {
		return Fig9Result{}, err
	}
	annModel, err := sched.TrainUnifiedANN(workload.TrainingSet(), ctx.rng(92))
	if err != nil {
		return Fig9Result{}, err
	}
	set := schemeSet{
		{"Linear", func(seed int64) *sched.Dispatcher {
			return sched.NewUnified(memfunc.LinearPower, rand.New(rand.NewSource(seed)))
		}},
		{"Exponential", func(seed int64) *sched.Dispatcher {
			return sched.NewUnified(memfunc.Exponential, rand.New(rand.NewSource(seed)))
		}},
		{"NapierianLog", func(seed int64) *sched.Dispatcher {
			return sched.NewUnified(memfunc.NapierianLog, rand.New(rand.NewSource(seed)))
		}},
		{"ANN", func(seed int64) *sched.Dispatcher {
			return sched.NewUnifiedANN(annModel, rand.New(rand.NewSource(seed)))
		}},
		moeScheme(moeModel),
	}
	scenarios, geo, err := runScenarios(ctx, set, workload.Scenarios)
	if err != nil {
		return Fig9Result{}, err
	}
	return Fig9Result{Scenarios: scenarios, Geomean: geo}, nil
}

// Tables renders Figure 9.
func (r Fig9Result) Tables() []Table {
	return comparisonTables(
		"Figure 9", "unified single-model baselines vs our approach",
		[]string{"Linear", "Exponential", "NapierianLog", "ANN", "MoE"},
		r.Scenarios, r.Geomean,
	)
}

// Fig10Result compares the MoE against online gradient search.
type Fig10Result struct {
	Scenarios []ScenarioResult
	Geomean   map[string]metrics.Aggregate
}

// Fig10 runs the online-search comparison (Figure 10).
func Fig10(ctx Context) (Fig10Result, error) {
	ctx = ctx.withDefaults()
	moeModel, _, err := trainedMoE(ctx, nil, 101)
	if err != nil {
		return Fig10Result{}, err
	}
	set := schemeSet{
		{"OnlineSearch", func(seed int64) *sched.Dispatcher {
			return sched.NewOnlineSearch(rand.New(rand.NewSource(seed)))
		}},
		moeScheme(moeModel),
	}
	scenarios, geo, err := runScenarios(ctx, set, workload.Scenarios)
	if err != nil {
		return Fig10Result{}, err
	}
	return Fig10Result{Scenarios: scenarios, Geomean: geo}, nil
}

// Tables renders Figure 10.
func (r Fig10Result) Tables() []Table {
	return comparisonTables(
		"Figure 10", "online gradient search vs our approach (paper: ours 2.4x/2.6x better)",
		[]string{"OnlineSearch", "MoE"},
		r.Scenarios, r.Geomean,
	)
}

// comparisonTables renders STP/ANTT panels for arbitrary scheme lists.
func comparisonTables(figure, caption string, names []string, scenarios []ScenarioResult, geo map[string]metrics.Aggregate) []Table {
	header := append([]string{"scenario", "apps"}, names...)
	stp := Table{Title: figure + "a: normalized STP", Header: header, Caption: caption}
	antt := Table{Title: figure + "b: ANTT reduction %", Header: header}
	for _, sr := range scenarios {
		byName := map[string]SchemeResult{}
		for _, s := range sr.Schemes {
			byName[s.Scheme] = s
		}
		stpRow := []string{sr.Label, fmt.Sprintf("%d", sr.Apps)}
		anttRow := []string{sr.Label, fmt.Sprintf("%d", sr.Apps)}
		for _, n := range names {
			stpRow = append(stpRow, f2(byName[n].NormalizedSTP))
			anttRow = append(anttRow, f2(byName[n].ANTTReductionPct))
		}
		stp.Rows = append(stp.Rows, stpRow)
		antt.Rows = append(antt.Rows, anttRow)
	}
	stpGeo := []string{"geomean", "-"}
	anttGeo := []string{"geomean", "-"}
	for _, n := range names {
		stpGeo = append(stpGeo, f2(geo[n].NormalizedSTP))
		anttGeo = append(anttGeo, f2(geo[n].ANTTReductionPct))
	}
	stp.Rows = append(stp.Rows, stpGeo)
	antt.Rows = append(antt.Rows, anttGeo)
	return []Table{stp, antt}
}

// Fig7Result reproduces Figures 7 and 8: per-node utilization traces and the
// resulting STP / wall-clock turnaround for the Table 4 mix under Pairwise,
// Quasar and our approach.
type Fig7Result struct {
	Schemes []Fig7Scheme
}

// Fig7Scheme is one scheme's trace and outcome for the Table 4 mix.
type Fig7Scheme struct {
	Scheme string
	// MeanUtilization is the time-averaged CPU utilization across nodes.
	MeanUtilization float64
	// MakespanMin is the wall-clock time to finish all 30 applications, in
	// minutes (Figure 8b).
	MakespanMin float64
	// STP is the Equation-1 value (Figure 8a).
	STP float64
	// Trace carries the full heatmap data (Figure 7).
	Trace *cluster.Trace
}

// Fig7 runs the Table 4 mix under the three schemes with tracing enabled.
func Fig7(ctx Context) (Fig7Result, error) {
	ctx = ctx.withDefaults()
	jobs, err := workload.Table4Mix()
	if err != nil {
		return Fig7Result{}, err
	}
	moeModel, _, err := trainedMoE(ctx, nil, 71)
	if err != nil {
		return Fig7Result{}, err
	}
	quasarModel, err := sched.TrainQuasar(workload.TrainingSet(), ctx.rng(72))
	if err != nil {
		return Fig7Result{}, err
	}
	runs := []struct {
		name string
		mk   func() cluster.Scheduler
	}{
		{"Pairwise", func() cluster.Scheduler { return sched.NewPairwise() }},
		{"Quasar", func() cluster.Scheduler { return sched.NewQuasar(quasarModel, ctx.rng(73)) }},
		{"MoE", func() cluster.Scheduler { return sched.NewMoE(moeModel, ctx.rng(74)) }},
	}
	var out Fig7Result
	for _, r := range runs {
		cfg := ctx.Cfg
		cfg.TraceInterval = 60
		c := cluster.New(cfg)
		res, err := c.Run(jobs, r.mk())
		if err != nil {
			return Fig7Result{}, fmt.Errorf("experiments: fig7 %s: %w", r.name, err)
		}
		run, err := metrics.FromResult(c, res)
		if err != nil {
			return Fig7Result{}, err
		}
		out.Schemes = append(out.Schemes, Fig7Scheme{
			Scheme:          r.name,
			MeanUtilization: res.Trace.MeanUtilization(),
			MakespanMin:     run.MakespanSec / 60,
			STP:             run.STP,
			Trace:           res.Trace,
		})
	}
	return out, nil
}

// Table renders the Figure 7/8 summary.
func (r Fig7Result) Table() Table {
	t := Table{
		Title:   "Figures 7-8: Table 4 mix (30 apps) — utilization, STP, turnaround",
		Header:  []string{"scheme", "mean CPU util", "STP", "turnaround (min)"},
		Caption: "Paper: our approach has the highest utilization; 1.81x/1.39x STP and 1.46x/1.28x turnaround over Pairwise/Quasar.",
	}
	for _, s := range r.Schemes {
		t.Rows = append(t.Rows, []string{s.Scheme, pct(s.MeanUtilization * 100), f2(s.STP), f1(s.MakespanMin)})
	}
	return t
}
