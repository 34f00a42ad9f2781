package experiments

import (
	"strings"
	"testing"
)

func TestOpenSystemQueueingAcrossRates(t *testing.T) {
	ctx := quickCtx()
	ctx.MixesPerScenario = 4 // one stream per rate
	r, err := OpenSystem(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rates) != len(openSystemRates) {
		t.Fatalf("%d rate points, want %d", len(r.Rates), len(openSystemRates))
	}
	byName := func(pt OpenRatePoint, name string) OpenSchemeResult {
		for _, s := range pt.Schemes {
			if s.Scheme == name {
				return s
			}
		}
		t.Fatalf("scheme %s missing at %.0f jobs/h", name, pt.JobsPerHour)
		return OpenSchemeResult{}
	}
	for _, pt := range r.Rates {
		for _, s := range pt.Schemes {
			if s.MeanSojournSec <= 0 || s.P95SojournSec <= 0 {
				t.Errorf("%s at %.0f jobs/h: non-positive sojourn %+v", s.Scheme, pt.JobsPerHour, s)
			}
			if s.MeanWaitSec < 0 {
				t.Errorf("%s at %.0f jobs/h: negative wait", s.Scheme, pt.JobsPerHour)
			}
			if s.ThroughputJobsPerHour <= 0 {
				t.Errorf("%s at %.0f jobs/h: no throughput", s.Scheme, pt.JobsPerHour)
			}
		}
	}
	// Under the heaviest load the serial isolated baseline must queue far
	// worse than the co-locating MoE scheme — the point of the open system.
	heavy := r.Rates[len(r.Rates)-1]
	iso := byName(heavy, "Isolated")
	moe := byName(heavy, "MoE")
	if iso.MeanWaitSec <= moe.MeanWaitSec {
		t.Errorf("at %.0f jobs/h isolated wait %.0fs should exceed MoE wait %.0fs",
			heavy.JobsPerHour, iso.MeanWaitSec, moe.MeanWaitSec)
	}
	// Waiting under the serial baseline grows with the offered load.
	lightIso := byName(r.Rates[0], "Isolated")
	if lightIso.MeanWaitSec >= iso.MeanWaitSec {
		t.Errorf("isolated wait should rise with load: %.0fs at %.0f/h vs %.0fs at %.0f/h",
			lightIso.MeanWaitSec, r.Rates[0].JobsPerHour, iso.MeanWaitSec, heavy.JobsPerHour)
	}
	tables := r.Tables()
	if len(tables) != 3 || !strings.Contains(tables[0].String(), "jobs/hour") {
		t.Error("open-system tables broken")
	}
}

// TestOpenSystemThroughputRisesWithLoad pins the study's queueing
// conclusion at 16 mixes (four streams per rate): the co-locating schemes'
// achieved throughput does not fall as offered load rises. It fell while
// fleet caps froze at admission, because a job admitted into the loaded
// fleet kept one or two executors for life. One stream per rate is too
// noisy for this: Pairwise dips slightly from 40 to 80 jobs/h on it.
func TestOpenSystemThroughputRisesWithLoad(t *testing.T) {
	ctx := DefaultContext()
	ctx.MixesPerScenario = 16
	r, err := OpenSystem(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Pairwise", "Quasar", "MoE"} {
		prev := 0.0
		for _, pt := range r.Rates {
			for _, s := range pt.Schemes {
				if s.Scheme != name {
					continue
				}
				if s.ThroughputJobsPerHour < prev {
					t.Errorf("%s: throughput fell to %.1f jobs/h at %.0f jobs/h offered, from %.1f",
						name, s.ThroughputJobsPerHour, pt.JobsPerHour, prev)
				}
				prev = s.ThroughputJobsPerHour
			}
		}
		if prev == 0 {
			t.Errorf("scheme %s missing", name)
		}
	}
}

func TestOpenSystemDeterministicAcrossWorkerCounts(t *testing.T) {
	ctx := quickCtx()
	ctx.MixesPerScenario = 4
	ctx.Workers = 1
	a, err := OpenSystem(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Workers = 4
	b, err := OpenSystem(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rates) != len(b.Rates) {
		t.Fatal("rate point counts differ")
	}
	for i := range a.Rates {
		for j := range a.Rates[i].Schemes {
			x, y := a.Rates[i].Schemes[j], b.Rates[i].Schemes[j]
			if x != y {
				t.Errorf("rate %d scheme %s: %+v vs %+v", i, x.Scheme, x, y)
			}
		}
	}
}
