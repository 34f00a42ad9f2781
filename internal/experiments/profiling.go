package experiments

import (
	"fmt"
	"math/rand"

	"moespark/internal/cluster"
	"moespark/internal/parallel"
	"moespark/internal/sched"
	"moespark/internal/workload"
)

// Fig11Result reproduces Figure 11: per-scenario time spent on feature
// extraction and model calibration relative to total execution time under
// our approach.
type Fig11Result struct {
	Rows []Fig11Row
}

// Fig11Row is one scenario's profiling breakdown (all values in minutes,
// averaged across the scenario's mixes).
type Fig11Row struct {
	Label          string
	FeatureMin     float64
	CalibrationMin float64
	TotalMin       float64
}

// profilingSplit estimates the feature-extraction and calibration time for
// one app from its profiling volumes and effective coordinator rate.
func profilingSplit(app *cluster.App) (featureSec, calibSec float64) {
	if app.ProfileGB <= 0 {
		return 0, 0
	}
	rate := app.Job.Bench.ScanRate * cluster.ProfilingRateFactor
	if rate <= 0 {
		return 0, 0
	}
	elapsed := app.ReadyTime - app.SubmitTime
	if elapsed <= 0 {
		return 0, 0
	}
	// Split the observed profiling wall-clock in proportion to the feature
	// vs calibration volumes.
	featureFrac := 0.1 / app.ProfileGB
	if featureFrac > 1 {
		featureFrac = 1
	}
	return elapsed * featureFrac, elapsed * (1 - featureFrac)
}

// Fig11 measures profiling overhead per scenario.
func Fig11(ctx Context) (Fig11Result, error) {
	ctx = ctx.withDefaults()
	moeModel, _, err := trainedMoE(ctx, nil, 111)
	if err != nil {
		return Fig11Result{}, err
	}
	// One unit per (scenario, mix); per-app contributions are kept in order
	// and folded serially afterwards so the result matches the serial loop
	// bit-for-bit.
	type appSplit struct{ feat, calib, turn float64 }
	mixes := ctx.MixesPerScenario
	splits := make([][]appSplit, len(workload.Scenarios)*mixes)
	err = parallel.ForEachIndexed(ctx.workers(), len(splits), func(item int) error {
		si, mix := item/mixes, item%mixes
		sc := workload.Scenarios[si]
		mixSeed := ctx.Seed*999_983 + int64(si)*733 + int64(mix)
		jobs := workload.RandomMix(sc, rand.New(rand.NewSource(mixSeed)))
		c := cluster.New(ctx.Cfg)
		res, err := c.Run(jobs, sched.NewMoE(moeModel, rand.New(rand.NewSource(mixSeed+7))))
		if err != nil {
			return fmt.Errorf("experiments: fig11 %s: %w", sc.Label, err)
		}
		rows := make([]appSplit, 0, len(res.Apps))
		for _, a := range res.Apps {
			f, cal := profilingSplit(a)
			rows = append(rows, appSplit{feat: f, calib: cal, turn: a.Turnaround()})
		}
		splits[item] = rows
		return nil
	})
	if err != nil {
		return Fig11Result{}, err
	}
	var out Fig11Result
	for si, sc := range workload.Scenarios {
		var feat, calib, total float64
		var n int
		for mix := 0; mix < mixes; mix++ {
			for _, s := range splits[si*mixes+mix] {
				feat += s.feat
				calib += s.calib
				total += s.turn
				n++
			}
		}
		nf := float64(n)
		out.Rows = append(out.Rows, Fig11Row{
			Label:          sc.Label,
			FeatureMin:     feat / nf / 60,
			CalibrationMin: calib / nf / 60,
			TotalMin:       total / nf / 60,
		})
	}
	return out, nil
}

// Table renders Figure 11.
func (r Fig11Result) Table() Table {
	t := Table{
		Title:   "Figure 11: average profiling time vs total task execution time",
		Header:  []string{"scenario", "feature extr. (min)", "calibration (min)", "total (min)", "overhead %"},
		Caption: "Paper: feature extraction ~5% and calibration ~8% of total execution time; profiled data contributes to the output.",
	}
	for _, row := range r.Rows {
		oh := 0.0
		if row.TotalMin > 0 {
			oh = (row.FeatureMin + row.CalibrationMin) / row.TotalMin * 100
		}
		t.Rows = append(t.Rows, []string{
			row.Label, f2(row.FeatureMin), f2(row.CalibrationMin), f2(row.TotalMin), pct(oh),
		})
	}
	return t
}

// Fig12Result reproduces Figure 12: per-benchmark profiling overhead for the
// 16 training programs with a ~280GB input.
type Fig12Result struct {
	Rows []Fig12Row
}

// Fig12Row is one benchmark's breakdown, in minutes.
type Fig12Row struct {
	Name           string
	FeatureMin     float64
	CalibrationMin float64
	TotalMin       float64
}

// Fig12 runs each training benchmark alone with a 280GB input under our
// approach and splits its profiling time.
func Fig12(ctx Context) (Fig12Result, error) {
	ctx = ctx.withDefaults()
	moeModel, _, err := trainedMoE(ctx, nil, 121)
	if err != nil {
		return Fig12Result{}, err
	}
	var out Fig12Result
	for i, b := range workload.TrainingSet() {
		jobs := []workload.Job{{Bench: b, InputGB: 280}}
		c := cluster.New(ctx.Cfg)
		res, err := c.Run(jobs, sched.NewMoE(moeModel, ctx.rng(122+int64(i))))
		if err != nil {
			return Fig12Result{}, fmt.Errorf("experiments: fig12 %s: %w", b.FullName(), err)
		}
		a := res.Apps[0]
		f, cal := profilingSplit(a)
		out.Rows = append(out.Rows, Fig12Row{
			Name:           b.FullName(),
			FeatureMin:     f / 60,
			CalibrationMin: cal / 60,
			TotalMin:       a.Turnaround() / 60,
		})
	}
	return out, nil
}

// Table renders Figure 12.
func (r Fig12Result) Table() Table {
	t := Table{
		Title:   "Figure 12: profiling time vs total runtime per benchmark (~280GB input)",
		Header:  []string{"benchmark", "feature extr. (min)", "calibration (min)", "total (min)", "overhead %"},
		Caption: "Paper: total profiling below ~13% per benchmark.",
	}
	for _, row := range r.Rows {
		oh := 0.0
		if row.TotalMin > 0 {
			oh = (row.FeatureMin + row.CalibrationMin) / row.TotalMin * 100
		}
		t.Rows = append(t.Rows, []string{
			row.Name, f2(row.FeatureMin), f2(row.CalibrationMin), f1(row.TotalMin), pct(oh),
		})
	}
	return t
}
