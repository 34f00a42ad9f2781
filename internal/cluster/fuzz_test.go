package cluster

import (
	"math/rand"
	"testing"

	"moespark/internal/workload"
)

// FuzzCompletionHeapMatchesScan fuzzes the indexed engine against the
// full-scan references in engine_ref.go. Each input seeds a short random
// closed batch (optionally with foreign co-runners, a mid-run memory hog,
// trace sampling, a rack storm and drain migration) under the differential
// scheduler of property_test.go, and the checker the property test installs
// (installDiffHook) fires on every engine event — rates fresh, advance about
// to run: the heap-top event pick must equal the full-scan minimum
// float-for-float, every stored rate, completion deadline, node total, the
// open node set and the growable list must equal a fresh recompute, and the
// shadow integrator bounds the settled progress. This is the differential
// property test reshaped so the fuzzer, rather than a fixed seed loop,
// explores the workload space.
func FuzzCompletionHeapMatchesScan(f *testing.F) {
	f.Add(int64(1), false, false, false, false)
	f.Add(int64(42), true, false, false, false)
	f.Add(int64(7), false, true, false, false)
	f.Add(int64(-3), true, true, false, false)
	f.Add(int64(9), false, false, true, false)
	f.Add(int64(11), true, false, true, true)
	f.Fuzz(func(t *testing.T, seed int64, foreign, trace, rackStorm, migrate bool) {
		r := rand.New(rand.NewSource(seed))
		jobs := randomJobs(r)
		cfg := DefaultConfig()
		if trace {
			cfg.TraceInterval = 40
		}
		if migrate {
			// Graceful evacuation plus retry-budget blacklists.
			cfg.MigrateOnDrain = true
			cfg.OOMRetryBudget = 2
		}
		var c *Cluster
		if rackStorm {
			// A racked uniform fleet hit by a correlated storm: one rack
			// drains and one fails after a warning drain, and every node
			// rejoins later. Executors caught on the warned rack exercise
			// the migration (or run-in-place) paths under the same
			// exact-agreement hook.
			fleet, err := workload.UniformFleet(cfg.Nodes, workload.PaperNode())
			if err != nil {
				t.Fatalf("fleet: %v", err)
			}
			if fleet, err = workload.AssignRacks(fleet, 3, 2); err != nil {
				t.Fatalf("racks: %v", err)
			}
			specs := SpecsFrom(fleet)
			if c, err = NewHetero(cfg, specs); err != nil {
				t.Fatalf("cluster: %v", err)
			}
			storm, err := RackStormEvents(specs, 1, 1, 30, 150, 20, 90, r)
			if err != nil {
				t.Fatalf("rack storm: %v", err)
			}
			if err := c.ScheduleNodeEvents(storm...); err != nil {
				t.Fatalf("node events: %v", err)
			}
		} else {
			c = New(cfg)
		}
		if foreign {
			nodes := len(c.Nodes())
			for i, fn := 0, 1+r.Intn(2); i < fn; i++ {
				if _, err := c.AddForeign(r.Intn(nodes), "co-runner",
					0.2+0.5*r.Float64(), 10+25*r.Float64(), 40+60*r.Float64()); err != nil {
					t.Fatalf("foreign: %v", err)
				}
			}
		}
		stats := installDiffHook(t, c, "fuzz:", 1)
		res, err := c.Run(jobs, &diffScheduler{hog: foreign})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if stats.events == 0 {
			t.Fatal("differential hook never fired")
		}
		for _, a := range res.Apps {
			if a.State != StateDone {
				t.Fatalf("app %d finished in state %v", a.ID, a.State)
			}
		}
	})
}
