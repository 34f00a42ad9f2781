package moespark

// The benchmark harness: one testing.B per table and figure of the paper's
// evaluation (regenerating its rows/series), plus ablation benches for the
// design choices (see README's "Benchmarks" section). Custom metrics are
// attached via b.ReportMetric so `go test -bench=.` prints the headline
// quantities next to the usual ns/op:
//
//	STP            normalized system throughput (Equation 1)
//	ANTTred%       ANTT reduction vs the serial isolated baseline
//	err%           memory-footprint prediction error
//	acc%           expert-selection accuracy
//
// The experiment contexts use small mix counts so a full -bench=. sweep
// stays in the minutes range; cmd/reproduce runs the full-size versions.

import (
	"math/rand"
	"testing"

	"moespark/internal/cluster"
	"moespark/internal/experiments"
	"moespark/internal/features"
	"moespark/internal/mathx"
	"moespark/internal/memfunc"
	"moespark/internal/metrics"
	"moespark/internal/moe"
	"moespark/internal/sched"
	"moespark/internal/workload"
)

func benchCtx() experiments.Context {
	ctx := experiments.DefaultContext()
	ctx.MixesPerScenario = 2
	return ctx
}

// BenchmarkFig3MemoryCurves regenerates Figure 3 (observed vs predicted
// curves for Sort and PageRank).
func BenchmarkFig3MemoryCurves(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3(benchCtx())
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, c := range r.Benchmarks {
			for j := range c.InputGB {
				e := mathx.RelativeError(c.Predicted[j], c.Observed[j]) * 100
				if e > worst {
					worst = e
				}
			}
		}
	}
	b.ReportMetric(worst, "worst-err%")
}

// BenchmarkFig4PCAVarimax regenerates Figure 4 (PC variance shares and
// Varimax feature importance).
func BenchmarkFig4PCAVarimax(b *testing.B) {
	var pc1 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(benchCtx())
		if err != nil {
			b.Fatal(err)
		}
		pc1 = r.ExplainedPct[0]
	}
	b.ReportMetric(pc1, "PC1-var%")
}

// BenchmarkFig6OverallSTP regenerates Figure 6 (the headline comparison) and
// reports the geomean STP of our approach and its fraction of Oracle.
func BenchmarkFig6OverallSTP(b *testing.B) {
	var stp, ofOracle, anttRed float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(benchCtx())
		if err != nil {
			b.Fatal(err)
		}
		stp = r.Geomean["MoE"].NormalizedSTP
		anttRed = r.Geomean["MoE"].ANTTReductionPct
		if o := r.Geomean["Oracle"].NormalizedSTP; o > 0 {
			ofOracle = stp / o * 100
		}
	}
	b.ReportMetric(stp, "STP")
	b.ReportMetric(anttRed, "ANTTred%")
	b.ReportMetric(ofOracle, "of-oracle%")
}

// BenchmarkFig8Table4Mix regenerates Figures 7-8 (the Table 4 mix) and
// reports our scheme's STP and turnaround.
func BenchmarkFig8Table4Mix(b *testing.B) {
	var stp, makespan float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(benchCtx())
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range r.Schemes {
			if s.Scheme == "MoE" {
				stp = s.STP
				makespan = s.MakespanMin
			}
		}
	}
	b.ReportMetric(stp, "STP")
	b.ReportMetric(makespan, "turnaround-min")
}

// BenchmarkFig9UnifiedModels regenerates Figure 9 (unified single-model
// baselines) and reports MoE's advantage over the best unified model — the
// mixture ablation.
func BenchmarkFig9UnifiedModels(b *testing.B) {
	var advantage float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(benchCtx())
		if err != nil {
			b.Fatal(err)
		}
		bestUnified := 0.0
		for _, n := range []string{"Linear", "Exponential", "NapierianLog", "ANN"} {
			if v := r.Geomean[n].NormalizedSTP; v > bestUnified {
				bestUnified = v
			}
		}
		if bestUnified > 0 {
			advantage = r.Geomean["MoE"].NormalizedSTP / bestUnified
		}
	}
	b.ReportMetric(advantage, "moe/best-unified")
}

// BenchmarkFig10OnlineSearch regenerates Figure 10 and reports MoE's
// advantage over gradient probing.
func BenchmarkFig10OnlineSearch(b *testing.B) {
	var advantage float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(benchCtx())
		if err != nil {
			b.Fatal(err)
		}
		if o := r.Geomean["OnlineSearch"].NormalizedSTP; o > 0 {
			advantage = r.Geomean["MoE"].NormalizedSTP / o
		}
	}
	b.ReportMetric(advantage, "moe/online")
}

// BenchmarkFig11ProfilingOverhead regenerates Figure 11 and reports the mean
// profiling overhead fraction.
func BenchmarkFig11ProfilingOverhead(b *testing.B) {
	var overhead float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11(benchCtx())
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, row := range r.Rows {
			sum += (row.FeatureMin + row.CalibrationMin) / row.TotalMin * 100
		}
		overhead = sum / float64(len(r.Rows))
	}
	b.ReportMetric(overhead, "overhead%")
}

// BenchmarkFig12PerBenchmarkProfiling regenerates Figure 12.
func BenchmarkFig12PerBenchmarkProfiling(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12(benchCtx())
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, row := range r.Rows {
			oh := (row.FeatureMin + row.CalibrationMin) / row.TotalMin * 100
			if oh > worst {
				worst = oh
			}
		}
	}
	b.ReportMetric(worst, "worst-overhead%")
}

// BenchmarkFig13CPULoadHistogram regenerates Figure 13.
func BenchmarkFig13CPULoadHistogram(b *testing.B) {
	var under40 float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig13(benchCtx())
		n := 0
		for j := 0; j < 4; j++ {
			n += r.BucketCounts[j]
		}
		under40 = float64(n) / 44 * 100
	}
	b.ReportMetric(under40, "under40%")
}

// BenchmarkFig14Interference regenerates Figure 14 (Spark-on-Spark
// co-location slowdowns).
func BenchmarkFig14Interference(b *testing.B) {
	var mean, max float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig14(benchCtx())
		if err != nil {
			b.Fatal(err)
		}
		mean, max = r.OverallMeanPct, r.MaxPct
	}
	b.ReportMetric(mean, "mean-slowdown%")
	b.ReportMetric(max, "max-slowdown%")
}

// BenchmarkFig15Parsec regenerates Figure 15 (PARSEC co-runner slowdowns).
func BenchmarkFig15Parsec(b *testing.B) {
	var max float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig15(benchCtx())
		if err != nil {
			b.Fatal(err)
		}
		max = r.MaxPct
	}
	b.ReportMetric(max, "max-slowdown%")
}

// BenchmarkFig16FeatureSpace regenerates Figure 16 (program clusters).
func BenchmarkFig16FeatureSpace(b *testing.B) {
	var sep float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig16(benchCtx())
		if err != nil {
			b.Fatal(err)
		}
		sep = r.SeparationRatio
	}
	b.ReportMetric(sep, "separation")
}

// BenchmarkFig17Accuracy regenerates Figure 17 (LOOCV footprint accuracy).
func BenchmarkFig17Accuracy(b *testing.B) {
	var meanErr float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig17(benchCtx())
		if err != nil {
			b.Fatal(err)
		}
		meanErr = r.MeanAbsErrPct
	}
	b.ReportMetric(meanErr, "err%")
}

// BenchmarkFig18Curves regenerates Figure 18 (LOOCV curve accuracy).
func BenchmarkFig18Curves(b *testing.B) {
	var meanErr float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig18(benchCtx())
		if err != nil {
			b.Fatal(err)
		}
		meanErr = r.MeanAbsErrPct
	}
	b.ReportMetric(meanErr, "err%")
}

// BenchmarkTable5Classifiers regenerates Table 5 (classifier comparison) and
// reports the KNN selector's accuracy.
func BenchmarkTable5Classifiers(b *testing.B) {
	var knn float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table5(benchCtx())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Classifier == "KNN" {
				knn = row.AccuracyPct
			}
		}
	}
	b.ReportMetric(knn, "acc%")
}

// --- Ablation benches (see README's "Benchmarks" section) ---

// calibrationError measures the mean footprint prediction error at 62.5GB
// when calibrating with n profiling points (1 uses scaling of the training
// fit; 2 is the paper's scheme; 3 adds a least-squares refit).
func calibrationError(b *testing.B, points int) float64 {
	rng := rand.New(rand.NewSource(33))
	model, err := moe.TrainDefault(rng)
	if err != nil {
		b.Fatal(err)
	}
	var sum float64
	var n int
	for _, bench := range workload.Catalog() {
		sel, err := model.SelectFamily(bench.Counters(rng))
		if err != nil {
			b.Fatal(err)
		}
		var fn memfunc.Func
		switch points {
		case 1:
			// One observation can only rescale a reference curve.
			ref := memfunc.Func{Family: sel.Family, M: 1, B: 1}
			switch sel.Family {
			case memfunc.Exponential:
				ref = memfunc.Func{Family: memfunc.Exponential, M: 5, B: 4}
			case memfunc.NapierianLog:
				ref = memfunc.Func{Family: memfunc.NapierianLog, M: 15, B: 1.6}
			case memfunc.LinearPower:
				ref = memfunc.Func{Family: memfunc.LinearPower, M: 0.4, B: 0.95}
			}
			p := bench.ProfilePoint(2, rng)
			base, err := ref.Eval(p.X)
			if err != nil || base <= 0 {
				continue
			}
			fn = ref
			fn.M *= p.Y / base
		case 2:
			f, err := memfunc.CalibrateWithFallback(sel.Family, bench.ProfilePoint(0.5, rng), bench.ProfilePoint(2, rng))
			if err != nil {
				continue
			}
			fn = f
		default:
			pts := []memfunc.Point{
				bench.ProfilePoint(0.5, rng),
				bench.ProfilePoint(1, rng),
				bench.ProfilePoint(2, rng),
			}
			f, err := memfunc.FitFamily(sel.Family, pts)
			if err != nil {
				continue
			}
			fn = f.Func
		}
		got, err := fn.Eval(62.5)
		if err != nil {
			continue
		}
		sum += mathx.RelativeError(got, bench.Footprint(62.5)) * 100
		n++
	}
	if n == 0 {
		b.Fatal("no calibrations succeeded")
	}
	return sum / float64(n)
}

// BenchmarkAblationCalibration compares 1-, 2- and 3-point calibration.
func BenchmarkAblationCalibration(b *testing.B) {
	for _, points := range []int{1, 2, 3} {
		points := points
		name := map[int]string{1: "1point", 2: "2point-paper", 3: "3point"}[points]
		b.Run(name, func(b *testing.B) {
			var errPct float64
			for i := 0; i < b.N; i++ {
				errPct = calibrationError(b, points)
			}
			b.ReportMetric(errPct, "err%")
		})
	}
}

// BenchmarkAblationPCADims measures expert-selection LOOCV accuracy with
// different numbers of retained principal components.
func BenchmarkAblationPCADims(b *testing.B) {
	for _, dims := range []int{2, 5, 22} {
		dims := dims
		b.Run(map[int]string{2: "2PCs", 5: "5PCs-paper", 22: "allPCs"}[dims], func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(34))
				model, err := moe.TrainOnBenchmarks(workload.TrainingSet(), nil,
					moe.Config{Pipeline: features.PipelineConfig{Components: dims}}, rng)
				if err != nil {
					b.Fatal(err)
				}
				correct, total := 0, 0
				for _, bench := range workload.Catalog() {
					sel, err := model.SelectFamily(bench.Counters(rng))
					if err != nil {
						b.Fatal(err)
					}
					total++
					if sel.Family == bench.Truth.Family {
						correct++
					}
				}
				acc = float64(correct) / float64(total) * 100
			}
			b.ReportMetric(acc, "acc%")
		})
	}
}

// BenchmarkAblationKNN measures selection accuracy for K in {1,3,5}.
func BenchmarkAblationKNN(b *testing.B) {
	for _, k := range []int{1, 3, 5} {
		k := k
		b.Run(map[int]string{1: "k1-paper", 3: "k3", 5: "k5"}[k], func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(35))
				model, err := moe.TrainOnBenchmarks(workload.TrainingSet(), nil, moe.Config{K: k}, rng)
				if err != nil {
					b.Fatal(err)
				}
				correct, total := 0, 0
				for _, bench := range workload.Catalog() {
					sel, err := model.SelectFamily(bench.Counters(rng))
					if err != nil {
						b.Fatal(err)
					}
					total++
					if sel.Family == bench.Truth.Family {
						correct++
					}
				}
				acc = float64(correct) / float64(total) * 100
			}
			b.ReportMetric(acc, "acc%")
		})
	}
}

// BenchmarkAblationMargin sweeps the dispatcher's safety margin and reports
// the resulting STP on a fixed L8 mix.
func BenchmarkAblationMargin(b *testing.B) {
	rng := rand.New(rand.NewSource(36))
	model, err := moe.TrainDefault(rng)
	if err != nil {
		b.Fatal(err)
	}
	sc, err := workload.ScenarioByLabel("L8")
	if err != nil {
		b.Fatal(err)
	}
	jobs := workload.RandomMix(sc, rand.New(rand.NewSource(37)))
	for _, margin := range []float64{0, 0.05, 0.10} {
		margin := margin
		name := map[float64]string{0: "margin0", 0.05: "margin5-default", 0.10: "margin10"}[margin]
		b.Run(name, func(b *testing.B) {
			var stp float64
			for i := 0; i < b.N; i++ {
				d := sched.NewMoE(model, rand.New(rand.NewSource(38)))
				d.SafetyMargin = margin
				c := cluster.New(cluster.DefaultConfig())
				res, err := c.Run(jobs, d)
				if err != nil {
					b.Fatal(err)
				}
				m, err := metrics.FromResult(c, res)
				if err != nil {
					b.Fatal(err)
				}
				stp = m.STP
			}
			b.ReportMetric(stp, "STP")
		})
	}
}
