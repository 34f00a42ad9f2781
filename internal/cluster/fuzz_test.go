package cluster

import (
	"math/rand"
	"testing"

	"moespark/internal/workload"
)

// FuzzCompletionHeapMatchesScan fuzzes the completion-deadline heap against
// the full-scan reference in engine_ref.go. Each input seeds a short random
// workload (optionally with foreign co-runners and trace sampling); the
// Cluster.checkEvent hook then fires on every engine event — rates fresh,
// advance about to run — where the heap-top event pick must equal the
// full-scan minimum float-for-float, and every stored rate, completion
// deadline and node total must equal a fresh recompute. This is the differential property
// test of property_test.go reshaped so the fuzzer, rather than a fixed seed
// loop, explores the workload space.
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
			// Graceful evacuation plus the rest of the failure-domain
			// machinery: retry-budget blacklists and capacity-ratcheted
			// fleet sizing.
			cfg.MigrateOnDrain = true
			cfg.OOMRetryBudget = 2
			cfg.RefreshFleetSizing = true
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
		events := 0
		c.checkEvent = func(share, dt float64, ok bool) {
			events++
			if ref := c.refProfilingShare(); share != ref {
				t.Fatalf("event %d: profiling share %v, reference %v", events, share, ref)
			}
			refDt, refOK := c.refNextEventDt(share)
			if ok != refOK || (ok && dt != refDt) {
				t.Fatalf("event %d: next event dt (%v,%v), reference (%v,%v)", events, dt, ok, refDt, refOK)
			}
			if diff := c.refCheckRates(); diff != "" {
				t.Fatalf("event %d: %s", events, diff)
			}
			if diff := c.refCheckDeadlines(share); diff != "" {
				t.Fatalf("event %d: %s", events, diff)
			}
			if diff := c.refCheckNodeSums(); diff != "" {
				t.Fatalf("event %d: %s", events, diff)
			}
		}
		res, err := c.Run(jobs, greedyScheduler{})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if events == 0 {
			t.Fatal("differential hook never fired")
		}
		for _, a := range res.Apps {
			if a.State != StateDone {
				t.Fatalf("app %d finished in state %v", a.ID, a.State)
			}
		}
	})
}
