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

func runners() []runner {
	one := func(f func(experiments.Context) (interface{ Table() experiments.Table }, error)) func(experiments.Context) ([]experiments.Table, error) {
		return func(ctx experiments.Context) ([]experiments.Table, error) {
			r, err := f(ctx)
			if err != nil {
				return nil, err
			}
			return []experiments.Table{r.Table()}, nil
		}
	}
	return []runner{
		{"fig3", one(func(ctx experiments.Context) (interface{ Table() experiments.Table }, error) {
			return experiments.Fig3(ctx)
		})},
		{"fig4", one(func(ctx experiments.Context) (interface{ Table() experiments.Table }, error) {
			return experiments.Fig4(ctx)
		})},
		{"fig6", func(ctx experiments.Context) ([]experiments.Table, error) {
			r, err := experiments.Fig6(ctx)
			if err != nil {
				return nil, err
			}
			return r.Tables(), nil
		}},
		{"fig7", one(func(ctx experiments.Context) (interface{ Table() experiments.Table }, error) {
			return experiments.Fig7(ctx)
		})},
		{"fig9", func(ctx experiments.Context) ([]experiments.Table, error) {
			r, err := experiments.Fig9(ctx)
			if err != nil {
				return nil, err
			}
			return r.Tables(), nil
		}},
		{"fig10", func(ctx experiments.Context) ([]experiments.Table, error) {
			r, err := experiments.Fig10(ctx)
			if err != nil {
				return nil, err
			}
			return r.Tables(), nil
		}},
		{"fig11", one(func(ctx experiments.Context) (interface{ Table() experiments.Table }, error) {
			return experiments.Fig11(ctx)
		})},
		{"fig12", one(func(ctx experiments.Context) (interface{ Table() experiments.Table }, error) {
			return experiments.Fig12(ctx)
		})},
		{"fig13", func(ctx experiments.Context) ([]experiments.Table, error) {
			return []experiments.Table{experiments.Fig13(ctx).Table()}, nil
		}},
		{"fig14", one(func(ctx experiments.Context) (interface{ Table() experiments.Table }, error) {
			return experiments.Fig14(ctx)
		})},
		{"fig15", one(func(ctx experiments.Context) (interface{ Table() experiments.Table }, error) {
			return experiments.Fig15(ctx)
		})},
		{"fig16", one(func(ctx experiments.Context) (interface{ Table() experiments.Table }, error) {
			return experiments.Fig16(ctx)
		})},
		{"fig17", one(func(ctx experiments.Context) (interface{ Table() experiments.Table }, error) {
			return experiments.Fig17(ctx)
		})},
		{"fig18", one(func(ctx experiments.Context) (interface{ Table() experiments.Table }, error) {
			return experiments.Fig18(ctx)
		})},
		{"table5", one(func(ctx experiments.Context) (interface{ Table() experiments.Table }, error) {
			return experiments.Table5(ctx)
		})},
		{"opensys", func(ctx experiments.Context) ([]experiments.Table, error) {
			r, err := experiments.OpenSystem(ctx)
			if err != nil {
				return nil, err
			}
			return r.Tables(), nil
		}},
		{"hetero", func(ctx experiments.Context) ([]experiments.Table, error) {
			r, err := experiments.Hetero(ctx)
			if err != nil {
				return nil, err
			}
			return r.Tables(), nil
		}},
		{"tenants", func(ctx experiments.Context) ([]experiments.Table, error) {
			r, err := experiments.Tenants(ctx)
			if err != nil {
				return nil, err
			}
			return r.Tables(), nil
		}},
		{"drift", func(ctx experiments.Context) ([]experiments.Table, error) {
			r, err := experiments.Drift(ctx)
			if err != nil {
				return nil, err
			}
			return r.Tables(), nil
		}},
		{"faults", func(ctx experiments.Context) ([]experiments.Table, error) {
			r, err := experiments.Faults(ctx)
			if err != nil {
				return nil, err
			}
			return r.Tables(), nil
		}},
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
