package moespark

import (
	"math"
	"math/rand"
	"testing"

	"moespark/internal/cluster"
	"moespark/internal/metrics"
	"moespark/internal/moe"
	"moespark/internal/sched"
	"moespark/internal/workload"
)

// golden holds per-run reference values for the closed-batch engine. The
// engine must reproduce them bit-for-bit (up to the 10 significant digits
// recorded): Run(jobs, sched) is required to stay a behaviour-preserving
// wrapper over RunOpen with all submissions at t=0. All goldens in this file
// were re-captured exactly once when the settle-on-rate-change engine landed
// together with the default flips to releasing foreign working sets and
// fleet-aware sizing (see README "Engine internals" for why the earlier values
// could not survive).
type golden struct {
	stp, antt, makespan float64
	oom                 int
	done                []float64
}

var closedBatchGoldens = map[string]golden{
	"pairwise-table4": {
		stp: 5.775099224, antt: 15.45625887, makespan: 4507.021926, oom: 0,
		done: []float64{119.09, 532.7014171, 633.4001982, 3505.031984, 780.8306478, 1506.827363, 739.1101982, 904.5921174, 3487.159932, 3720.91718, 1723.913353, 1793.707363, 1722.747363, 1944.940818, 4091.342495, 1909.800119, 4138.993157, 2113.917619, 2176.543773, 2150.297386, 1955.005618, 2788.46749, 4296.980656, 2252.662619, 3272.17992, 2304.173389, 4267.444002, 4507.021926, 2951.633665, 3366.531445},
	},
	"oracle-table4": {
		stp: 10.89921569, antt: 3.838209225, makespan: 2689.653253, oom: 0,
		done: []float64{125.7731306, 449.1273863, 426.8298966, 849.7120114, 703.8943823, 2002.795936, 111.6275, 600.6517326, 1058.566143, 833.2340449, 2249.257649, 1285.926871, 789.9540325, 1667.728923, 2562.848732, 489.0304291, 1878.369524, 678.2598365, 923.9562108, 1161.500779, 11.55184977, 2689.653253, 1968.076597, 479.7712676, 2182.81943, 304.9818075, 1419.547923, 2662.675159, 709.8053332, 1359.205523},
	},
	"moe-l5-seed42": {
		stp: 9.720532631, antt: 1.134993937, makespan: 590.134085, oom: 0,
		done: []float64{590.134085, 190.5721229, 14.6678978, 10.50170571, 13.63352396, 13.20511156, 336.9350995, 161.5294564, 182.4614478, 11.08099139, 192.8985541},
	},
	"isolated-l5-seed42": {
		stp: 1.94834659, antt: 35.53086045, makespan: 1457.891741, oom: 0,
		done: []float64{508, 666, 679.4545455, 689.4545455, 702.0699301, 714.3556444, 995.0829171, 1128.082917, 1283.141741, 1293.641741, 1457.891741},
	},
}

// relClose checks agreement to ~9 significant digits (the goldens were
// recorded with 10).
func relClose(got, want float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(got-want)/math.Abs(want) < 1e-8
}

func checkGolden(t *testing.T, label string, jobs []workload.Job, s cluster.Scheduler) {
	t.Helper()
	g, ok := closedBatchGoldens[label]
	if !ok {
		t.Fatalf("no golden named %q", label)
	}
	c := cluster.New(cluster.DefaultConfig())
	res, err := c.Run(jobs, s)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	m, err := metrics.FromResult(c, res)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !relClose(m.STP, g.stp) {
		t.Errorf("%s: STP = %.10g, golden %.10g", label, m.STP, g.stp)
	}
	if !relClose(m.ANTT, g.antt) {
		t.Errorf("%s: ANTT = %.10g, golden %.10g", label, m.ANTT, g.antt)
	}
	if !relClose(m.MakespanSec, g.makespan) {
		t.Errorf("%s: makespan = %.10g, golden %.10g", label, m.MakespanSec, g.makespan)
	}
	if m.OOMKills != g.oom {
		t.Errorf("%s: OOM kills = %d, golden %d", label, m.OOMKills, g.oom)
	}
	if len(res.Apps) != len(g.done) {
		t.Fatalf("%s: %d apps, golden %d", label, len(res.Apps), len(g.done))
	}
	for i, a := range res.Apps {
		if !relClose(a.DoneTime, g.done[i]) {
			t.Errorf("%s: app %d done at %.10g, golden %.10g", label, i, a.DoneTime, g.done[i])
		}
		if a.SubmitTime != 0 {
			t.Errorf("%s: app %d submit time %v, closed batch must submit at 0", label, i, a.SubmitTime)
		}
	}
}

// TestClosedBatchEquivalence locks Run(jobs, sched) to the results the
// pre-refactor closed-batch engine produced for deterministic and seeded
// schedulers alike.
func TestClosedBatchEquivalence(t *testing.T) {
	t4, err := workload.Table4Mix()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "pairwise-table4", t4, sched.NewPairwise())
	checkGolden(t, "oracle-table4", t4, sched.NewOracle())

	sc, err := workload.ScenarioByLabel("L5")
	if err != nil {
		t.Fatal(err)
	}
	mix := workload.RandomMix(sc, rand.New(rand.NewSource(42)))
	model, err := moe.TrainDefault(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "moe-l5-seed42", mix, sched.NewMoE(model, rand.New(rand.NewSource(9))))
	checkGolden(t, "isolated-l5-seed42", mix, sched.NewIsolated())
}

// openGolden holds per-run reference values for the open-system engine on a
// homogeneous default fleet with no node events; the engine must reproduce
// them bit-for-bit. Re-captured with the settle-engine + default-flip sweep:
// FleetAwareSizing now reads free-node capacity at admission, so apps
// admitted into a busy fleet get smaller executor fleets than the reference
// formula gave — under the Pairwise scheme that stretches the loaded tail
// substantially (the old makespan was 1832.87; stragglers admitted at peak
// now crawl on 1-2 executors).
type openGolden struct {
	makespan              float64
	oom                   int
	meanWait, p95, thrput float64
	done                  []float64
}

var openSystemGoldens = map[string]openGolden{
	"oracle-poisson80-seed11": {
		makespan: 1704.343083, oom: 0,
		meanWait: 0.06507541559, p95: 502.4435227, thrput: 63.48669284,
		done: []float64{15.81457191, 546.6221167, 379.3690094, 272.8867105, 518.8516782, 358.4781837, 745.3880652, 383.4156746, 536.2330575, 432.6740017, 707.8188842, 459.0676997, 554.7941554, 754.6050476, 1158.096507, 1138.055366, 1183.44261, 720.7582688, 785.1834539, 976.5814021, 1286.25237, 1156.46113, 1013.480973, 1431.368026, 1216.022009, 1103.452552, 1209.237348, 1479.839544, 1704.343083, 1641.418192},
	},
	"pairwise-poisson80-seed11": {
		makespan: 4781.222602, oom: 0,
		meanWait: 12.81084063, p95: 1469.266696, thrput: 22.60348906,
		done: []float64{15.81457191, 556.9167151, 374.179373, 268.6884133, 477.7373781, 356.5300886, 795.9615865, 383.3575207, 533.0797814, 432.5228017, 909.4217891, 458.9164997, 554.9525554, 749.1853766, 4781.222602, 1163.120379, 1082.350677, 808.6727865, 809.0653865, 972.0814021, 1244.77291, 1148.142625, 1011.071205, 1344.068387, 1228.194288, 1160.853825, 1209.417348, 1479.200005, 1723.388122, 3529.465798},
	},
}

func checkOpenGolden(t *testing.T, label string, s cluster.Scheduler) {
	t.Helper()
	g, ok := openSystemGoldens[label]
	if !ok {
		t.Fatalf("no open-system golden named %q", label)
	}
	arrivals, err := workload.PoissonArrivals(30, 80.0/3600, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.New(cluster.DefaultConfig())
	res, err := c.RunOpen(cluster.Submissions(arrivals), s)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	q, err := metrics.Queueing(res, 0)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !relClose(res.MakespanSec, g.makespan) {
		t.Errorf("%s: makespan = %.10g, golden %.10g", label, res.MakespanSec, g.makespan)
	}
	if res.OOMKills != g.oom {
		t.Errorf("%s: OOM kills = %d, golden %d", label, res.OOMKills, g.oom)
	}
	if res.FailKills != 0 {
		t.Errorf("%s: fail kills = %d without node events", label, res.FailKills)
	}
	if !relClose(q.MeanWaitSec, g.meanWait) {
		t.Errorf("%s: mean wait = %.10g, golden %.10g", label, q.MeanWaitSec, g.meanWait)
	}
	if !relClose(q.P95SojournSec, g.p95) {
		t.Errorf("%s: p95 sojourn = %.10g, golden %.10g", label, q.P95SojournSec, g.p95)
	}
	if !relClose(q.ThroughputJobsPerHour, g.thrput) {
		t.Errorf("%s: throughput = %.10g, golden %.10g", label, q.ThroughputJobsPerHour, g.thrput)
	}
	if len(res.Apps) != len(g.done) {
		t.Fatalf("%s: %d apps, golden %d", label, len(res.Apps), len(g.done))
	}
	for i, a := range res.Apps {
		if !relClose(a.DoneTime, g.done[i]) {
			t.Errorf("%s: app %d done at %.10g, golden %.10g", label, i, a.DoneTime, g.done[i])
		}
	}
}

// TestOpenSystemEquivalence locks RunOpen on a homogeneous default fleet to
// the results the pre-heterogeneity engine produced.
func TestOpenSystemEquivalence(t *testing.T) {
	checkOpenGolden(t, "oracle-poisson80-seed11", sched.NewOracle())
	checkOpenGolden(t, "pairwise-poisson80-seed11", sched.NewPairwise())
}

// tenantsGolden pins a multi-tenant run: a classed Poisson stream under the
// priority-wrapped Oracle scheme with preemption enabled. Admission order,
// preemption decisions and charge-back must stay bit-for-bit reproducible.
// Re-captured with the settle-engine + default-flip sweep: at 200 jobs/hour
// the fleet is saturated for most of the run, so fleet-aware sizing hands
// late batch arrivals very small fleets — the batch tail stretches from
// ~1554 s to ~22356 s and one fewer preemption fires (7, was 8). Latency-class
// behaviour is nearly unchanged (latWait stays exactly 0).
var tenantsGolden = struct {
	makespan          float64
	preemptKills, oom int
	latP99, batchP99  float64
	latWait           float64
	classes           string // per-app class sequence, L = latency, b = batch
	done              []float64
}{
	makespan: 22355.54237, preemptKills: 7, oom: 0,
	latP99: 452.3734037, batchP99: 16724.25914, latWait: 0,
	classes: "bbbbbbLbbbLbbbLbbbbLbbbbLbbbLLbbbLLbbbbL",
	done:    []float64{326.9548549, 245.8397026, 100.8435453, 300.9121256, 363.3193996, 354.6640252, 456.5172793, 199.8301064, 345.308344, 707.7958393, 517.7309101, 971.6799148, 463.0377199, 592.2053596, 592.0644949, 357.3863326, 1422.344622, 1624.312893, 3424.270083, 824.1569136, 469.9354793, 599.4823334, 857.1407662, 4985.479116, 511.2523722, 2248.599187, 528.0992815, 1043.352524, 873.6455051, 940.6348853, 22355.54237, 717.7130157, 1687.964923, 738.5443131, 750.179194, 1111.4534, 1074.346133, 867.3116462, 1359.550891, 1335.135678},
}

// TestTenantsMixGolden locks the classed open-system path (weighted
// admission, class-aware placement, preemption with charge-back) to the
// results captured when the multi-tenant engine landed.
func TestTenantsMixGolden(t *testing.T) {
	g := tenantsGolden
	rng := rand.New(rand.NewSource(19))
	arrivals, err := workload.PoissonArrivals(40, 200.0/3600, rng)
	if err != nil {
		t.Fatal(err)
	}
	tagged, err := workload.TagArrivals(arrivals, workload.LatencyBatchMix(0.3), rng)
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.New(cluster.DefaultConfig())
	res, err := c.RunOpen(cluster.Submissions(tagged), sched.NewPriority(sched.NewOracle(), true))
	if err != nil {
		t.Fatal(err)
	}
	if !relClose(res.MakespanSec, g.makespan) {
		t.Errorf("makespan = %.10g, golden %.10g", res.MakespanSec, g.makespan)
	}
	if res.PreemptKills != g.preemptKills {
		t.Errorf("preempt kills = %d, golden %d", res.PreemptKills, g.preemptKills)
	}
	if res.OOMKills != g.oom {
		t.Errorf("OOM kills = %d, golden %d", res.OOMKills, g.oom)
	}
	if len(res.Apps) != len(g.done) {
		t.Fatalf("%d apps, golden %d", len(res.Apps), len(g.done))
	}
	for i, a := range res.Apps {
		if !relClose(a.DoneTime, g.done[i]) {
			t.Errorf("app %d done at %.10g, golden %.10g", i, a.DoneTime, g.done[i])
		}
		want := "batch"
		if g.classes[i] == 'L' {
			want = "latency"
		}
		if a.Class.Name != want {
			t.Errorf("app %d classed %q, golden %q", i, a.Class.Name, want)
		}
	}
	qs, err := metrics.QueueingByClass(res, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 2 || qs[0].Class != "latency" || qs[1].Class != "batch" {
		t.Fatalf("class metrics order broken: %+v", qs)
	}
	if !relClose(qs[0].P99SojournSec, g.latP99) {
		t.Errorf("latency p99 = %.10g, golden %.10g", qs[0].P99SojournSec, g.latP99)
	}
	if qs[0].MeanWaitSec != g.latWait {
		t.Errorf("latency mean wait = %.10g, golden %.10g (preemption starts the class instantly here)",
			qs[0].MeanWaitSec, g.latWait)
	}
	if !relClose(qs[1].P99SojournSec, g.batchP99) {
		t.Errorf("batch p99 = %.10g, golden %.10g", qs[1].P99SojournSec, g.batchP99)
	}
	if qs[1].PreemptKills != g.preemptKills {
		t.Errorf("batch absorbed %d preempt kills, golden %d", qs[1].PreemptKills, g.preemptKills)
	}
}

// TestFirstFitPlacerMatchesDefault pins the Placer refactor: a Dispatcher
// with the explicit first-fit Placer must place exactly like the nil
// (historical scan-order) default, bit-for-bit.
func TestFirstFitPlacerMatchesDefault(t *testing.T) {
	t4, err := workload.Table4Mix()
	if err != nil {
		t.Fatal(err)
	}
	run := func(p sched.Placer) *cluster.Result {
		d := sched.NewOracle()
		d.Placer = p
		c := cluster.New(cluster.DefaultConfig())
		res, err := c.Run(t4, d)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	legacy := run(nil)
	scored := run(sched.NewFirstFit())
	if legacy.MakespanSec != scored.MakespanSec {
		t.Errorf("makespan %v (nil placer) vs %v (first-fit placer)", legacy.MakespanSec, scored.MakespanSec)
	}
	for i := range legacy.Apps {
		if legacy.Apps[i].DoneTime != scored.Apps[i].DoneTime {
			t.Errorf("app %d done %v vs %v", i, legacy.Apps[i].DoneTime, scored.Apps[i].DoneTime)
		}
	}
}

// TestHomogeneousHeteroConstructorEquivalence pins NewHetero with 40 default
// specs to New's results: per-node capacity math must not perturb the
// homogeneous path.
func TestHomogeneousHeteroConstructorEquivalence(t *testing.T) {
	t4, err := workload.Table4Mix()
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.DefaultConfig()
	c1 := cluster.New(cfg)
	r1, err := c1.Run(t4, sched.NewOracle())
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]cluster.NodeSpec, cfg.Nodes)
	for i := range specs {
		specs[i] = cluster.ReferenceNode()
	}
	c2, err := cluster.NewHetero(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c2.Run(t4, sched.NewOracle())
	if err != nil {
		t.Fatal(err)
	}
	if r1.MakespanSec != r2.MakespanSec {
		t.Errorf("makespan %v (New) vs %v (NewHetero)", r1.MakespanSec, r2.MakespanSec)
	}
	for i := range r1.Apps {
		if r1.Apps[i].DoneTime != r2.Apps[i].DoneTime {
			t.Errorf("app %d done %v vs %v", i, r1.Apps[i].DoneTime, r2.Apps[i].DoneTime)
		}
	}
}

// TestRunMatchesRunOpenAtTimeZero pins the wrapper relationship directly:
// submitting everything at t=0 through RunOpen is bit-identical to Run.
func TestRunMatchesRunOpenAtTimeZero(t *testing.T) {
	t4, err := workload.Table4Mix()
	if err != nil {
		t.Fatal(err)
	}
	c1 := cluster.New(cluster.DefaultConfig())
	r1, err := c1.Run(t4, sched.NewOracle())
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]cluster.Submission, len(t4))
	for i, j := range t4 {
		subs[i] = cluster.Submission{At: 0, Job: j}
	}
	c2 := cluster.New(cluster.DefaultConfig())
	r2, err := c2.RunOpen(subs, sched.NewOracle())
	if err != nil {
		t.Fatal(err)
	}
	if r1.MakespanSec != r2.MakespanSec {
		t.Errorf("makespan %v vs %v", r1.MakespanSec, r2.MakespanSec)
	}
	for i := range r1.Apps {
		if r1.Apps[i].DoneTime != r2.Apps[i].DoneTime {
			t.Errorf("app %d done %v vs %v", i, r1.Apps[i].DoneTime, r2.Apps[i].DoneTime)
		}
	}
}
