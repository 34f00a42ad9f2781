package experiments

import (
	"strings"
	"testing"
)

// faultsCtx pins the failure-domain study's test setup: one stream per seed
// (the smallest `reproduce -exp faults` shape).
func faultsCtx(seed int64) Context {
	ctx := DefaultContext()
	ctx.Seed = seed
	ctx.MixesPerScenario = 8
	return ctx
}

// The study's headline claim, per seed: under rack storms, graceful
// migration with retry budgets strictly reduces both the work lost to
// failures and the p99 sojourn tail against the run-in-place baseline, for
// every co-location scheme. Short mode checks the default seed only; the
// full run covers seeds 1 through 5.
func TestFaultsMigrationReducesLossAndTail(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		r, err := Faults(faultsCtx(seed))
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Schemes) != 2 {
			t.Fatalf("seed %d: %d schemes, want 2", seed, len(r.Schemes))
		}
		for _, sr := range r.Schemes {
			if len(sr.Modes) != 3 {
				t.Fatalf("seed %d %s: %d modes, want 3", seed, sr.Scheme, len(sr.Modes))
			}
			byMode := map[string]FaultsModeResult{}
			for _, m := range sr.Modes {
				byMode[m.Mode] = m
				if m.MeanSojournSec <= 0 || m.P99SojournSec <= 0 || m.ThroughputJobsPerHour <= 0 ||
					m.GoodputFrac <= 0 || m.GoodputFrac > 1+1e-9 {
					t.Errorf("seed %d %s/%s: degenerate result %+v", seed, sr.Scheme, m.Mode, m)
				}
			}
			base, ok := byMode["no-migration"]
			if !ok {
				t.Fatalf("seed %d %s: no-migration mode missing", seed, sr.Scheme)
			}
			full, ok := byMode["migration+retry"]
			if !ok {
				t.Fatalf("seed %d %s: migration+retry mode missing", seed, sr.Scheme)
			}
			if base.FailKills == 0 || base.LostWorkGB <= 0 {
				t.Errorf("seed %d %s: baseline storm drew no blood (kills=%d lost=%.1f)",
					seed, sr.Scheme, base.FailKills, base.LostWorkGB)
			}
			if full.LostWorkGB >= base.LostWorkGB {
				t.Errorf("seed %d %s: migration+retry lost %.1f GB, baseline %.1f",
					seed, sr.Scheme, full.LostWorkGB, base.LostWorkGB)
			}
			if full.P99SojournSec >= base.P99SojournSec {
				t.Errorf("seed %d %s: migration+retry p99 %.1f s, baseline %.1f",
					seed, sr.Scheme, full.P99SojournSec, base.P99SojournSec)
			}
			if full.Migrations == 0 {
				t.Errorf("seed %d %s: migration+retry performed no migrations", seed, sr.Scheme)
			}
		}
		if seed == 1 {
			tables := r.Tables()
			if len(tables) != 3 || !strings.Contains(tables[0].String(), "lost GB") ||
				!strings.Contains(tables[2].String(), "migrations") {
				t.Error("faults tables broken")
			}
		}
	}
}

// The same storm replays for every (scheme, mode) cell of a stream, and the
// stream fan-out is seeded per unit, so the study must stay bit-identical at
// any worker count.
func TestFaultsDeterministicAcrossWorkerCounts(t *testing.T) {
	ctx := faultsCtx(1)
	if !testing.Short() {
		ctx.MixesPerScenario = 16
	}
	ctx.Workers = 1
	a, err := Faults(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Workers = 4
	b, err := Faults(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Schemes) != len(b.Schemes) {
		t.Fatal("scheme counts differ")
	}
	for i := range a.Schemes {
		for j := range a.Schemes[i].Modes {
			x, y := a.Schemes[i].Modes[j], b.Schemes[i].Modes[j]
			if x != y {
				t.Errorf("%s/%s: %+v vs %+v", a.Schemes[i].Scheme, x.Mode, x, y)
			}
		}
	}
}
