// Command reproduce regenerates the paper's tables and figures.
//
// Usage:
//
//	reproduce -exp all            # everything (slowest)
//	reproduce -exp fig6 -mixes 50 # one experiment with more mixes
//	reproduce -list               # list experiment ids
//
// Experiment ids: fig3 fig4 fig6 fig7 fig9 fig10 fig11 fig12 fig13 fig14
// fig15 fig16 fig17 fig18 table5 opensys (the open-system queueing study,
// beyond the paper) hetero (heterogeneous fleets and node churn, beyond the
// paper) tenants (multi-tenant priority classes with preemption, beyond the
// paper) drift (static vs adaptive MoE under non-stationary workloads,
// beyond the paper) faults (failure-domain resilience under rack storms,
// beyond the paper).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"moespark/internal/experiments"
)

type runner struct {
	id  string
	run func(experiments.Context) ([]experiments.Table, error)
}

// table adapts an experiment whose result renders one table.
func table[R interface{ Table() experiments.Table }](exp func(experiments.Context) (R, error)) func(experiments.Context) ([]experiments.Table, error) {
	return func(ctx experiments.Context) ([]experiments.Table, error) {
		r, err := exp(ctx)
		if err != nil {
			return nil, err
		}
		return []experiments.Table{r.Table()}, nil
	}
}

// tables adapts an experiment whose result renders several tables.
func tables[R interface{ Tables() []experiments.Table }](exp func(experiments.Context) (R, error)) func(experiments.Context) ([]experiments.Table, error) {
	return func(ctx experiments.Context) ([]experiments.Table, error) {
		r, err := exp(ctx)
		if err != nil {
			return nil, err
		}
		return r.Tables(), nil
	}
}

// runners lists every experiment in -list order, which is also the order
// -exp all runs them in.
func runners() []runner {
	return []runner{
		{"fig3", table(experiments.Fig3)},
		{"fig4", table(experiments.Fig4)},
		{"fig6", tables(experiments.Fig6)},
		{"fig7", table(experiments.Fig7)},
		{"fig9", tables(experiments.Fig9)},
		{"fig10", tables(experiments.Fig10)},
		{"fig11", table(experiments.Fig11)},
		{"fig12", table(experiments.Fig12)},
		{"fig13", table(func(ctx experiments.Context) (experiments.Fig13Result, error) {
			return experiments.Fig13(ctx), nil
		})},
		{"fig14", table(experiments.Fig14)},
		{"fig15", table(experiments.Fig15)},
		{"fig16", table(experiments.Fig16)},
		{"fig17", table(experiments.Fig17)},
		{"fig18", table(experiments.Fig18)},
		{"table5", table(experiments.Table5)},
		{"opensys", tables(experiments.OpenSystem)},
		{"hetero", tables(experiments.Hetero)},
		{"tenants", tables(experiments.Tenants)},
		{"drift", tables(experiments.Drift)},
		{"faults", tables(experiments.Faults)},
	}
}

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (or \"all\")")
		mixes   = flag.Int("mixes", 20, "application mixes per scenario (paper: ~100)")
		seed    = flag.Int64("seed", 1, "random seed")
		workers = flag.Int("workers", 0, "experiment worker pool (0 = one per CPU; results identical at any width)")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		cpuprof = flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
		memprof = flag.String("memprofile", "", "write a heap profile (after a final GC) to this file at exit")
	)
	flag.Parse()

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reproduce:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "reproduce:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprof != "" {
		// Declared after the CPU-profile defer so it runs first (LIFO).
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintln(os.Stderr, "reproduce:", err)
				os.Exit(1)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "reproduce:", err)
				os.Exit(1)
			}
			f.Close()
		}()
	}

	rs := runners()
	if *list {
		ids := make([]string, len(rs))
		for i, r := range rs {
			ids[i] = r.id
		}
		fmt.Println(strings.Join(ids, " "))
		return
	}

	ctx := experiments.DefaultContext()
	ctx.Seed = *seed
	ctx.MixesPerScenario = *mixes
	ctx.Workers = *workers

	ran := false
	for _, r := range rs {
		if *exp != "all" && *exp != r.id {
			continue
		}
		ran = true
		tables, err := r.run(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "reproduce: %s: %v\n", r.id, err)
			os.Exit(1)
		}
		for _, t := range tables {
			fmt.Println(t.String())
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "reproduce: unknown experiment %q (try -list)\n", *exp)
		os.Exit(1)
	}
}
