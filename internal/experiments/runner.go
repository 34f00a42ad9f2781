package experiments

import (
	"math/rand"
	"reflect"
	"runtime"

	"moespark/internal/cluster"
	"moespark/internal/moe"
	"moespark/internal/parallel"
	"moespark/internal/sched"
	"moespark/internal/workload"
)

// workers resolves the experiment worker-pool width: Context.Workers when
// set, else one worker per available CPU.
func (c Context) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// scheme is one named policy of a comparison; build returns a fresh
// dispatcher for one run. Models are trained once, outside build.
type scheme struct {
	name  string
	build func(seed int64) *sched.Dispatcher
}

// schemeSet is a comparison's schemes in table order.
type schemeSet []scheme

// salted builds s's dispatcher for a unit seeded seed. The name's length
// salts the seed, so schemes of one unit draw different streams.
func (s scheme) salted(seed int64) *sched.Dispatcher {
	return s.build(seed + int64(len(s.name)))
}

// variant is s under another name, placing with placer when it is not nil.
func (s scheme) variant(name string, placer sched.Placer) scheme {
	return scheme{name, func(seed int64) *sched.Dispatcher {
		d := s.build(seed)
		d.PolicyName = name
		if placer != nil {
			d.Placer = placer
		}
		return d
	}}
}

// moeScheme is the paper's MoE dispatcher over model.
func moeScheme(model *moe.Model) scheme {
	return scheme{"MoE", func(seed int64) *sched.Dispatcher {
		return sched.NewMoE(model, rand.New(rand.NewSource(seed)))
	}}
}

// env describes the fresh cluster each run of a unit starts from: the
// platform, the fleet (nil specs: cfg.Nodes reference nodes), the node
// lifecycle events, and either an open stream (subs) or a closed batch
// (jobs).
type env struct {
	cfg    cluster.Config
	specs  []cluster.NodeSpec
	events []cluster.NodeEvent
	subs   []cluster.Submission
	jobs   []workload.Job
}

// replay runs e under s on a fresh cluster.
func (e env) replay(s cluster.Scheduler) (c *cluster.Cluster, res *cluster.Result, err error) {
	if e.specs == nil {
		c = cluster.New(e.cfg)
	} else if c, err = cluster.NewHetero(e.cfg, e.specs); err != nil {
		return nil, nil, err
	}
	if err = c.ScheduleNodeEvents(e.events...); err != nil {
		return nil, nil, err
	}
	if e.jobs != nil {
		res, err = c.Run(e.jobs, s)
	} else {
		res, err = c.RunOpen(e.subs, s)
	}
	return c, res, err
}

// grid is a study's layout: points × streams units of cells runs each.
type grid struct {
	points, streams, cells int
	// seed is the study's seed formula for unit (p, s).
	seed func(p, s int) int64
	// draw builds unit inputs once, from the unit seed; every cell of the
	// unit replays them.
	draw func(p int, seed int64) (env, error)
}

// runGrid fans g's units out over the worker pool. Cell c of unit (p, s)
// runs cell(p, c, env, seed), which replays the env and reduces the result
// to what the study keeps, into slot out[p][c][s]. Units derive all
// randomness from their seed and write only their own slots, so the output
// is bit-identical at any worker count.
func runGrid[R any](ctx Context, g grid, cell func(p, c int, e env, seed int64) (R, error)) ([][][]R, error) {
	out := make([][][]R, g.points)
	for p := range out {
		out[p] = make([][]R, g.cells)
		for c := range out[p] {
			out[p][c] = make([]R, g.streams)
		}
	}
	err := parallel.ForEachIndexed(ctx.workers(), g.points*g.streams, func(u int) error {
		p, s := u/g.streams, u%g.streams
		seed := g.seed(p, s)
		e, err := g.draw(p, seed)
		if err != nil {
			return err
		}
		for c := range g.cells {
			if out[p][c][s], err = cell(p, c, e, seed); err != nil {
				return err
			}
		}
		return nil
	})
	return out, err
}

// pooled pools every cell of one point (see pool).
func pooled[R any](cells [][]R) []R {
	out := make([]R, len(cells))
	for c, streams := range cells {
		out[c] = pool(streams)
	}
	return out
}

// pool is the studies' one pooling rule over a cell's per-stream results:
// float fields are averaged (summed in stream order, then divided once),
// int counters are summed, and any other field keeps the first stream's
// value.
func pool[R any](streams []R) R {
	out := streams[0]
	v := reflect.ValueOf(&out).Elem()
	for i := range v.NumField() {
		switch f := v.Field(i); f.Kind() {
		case reflect.Float64:
			var sum float64
			for _, r := range streams {
				sum += reflect.ValueOf(r).Field(i).Float()
			}
			f.SetFloat(sum / float64(len(streams)))
		case reflect.Int:
			var sum int64
			for _, r := range streams {
				sum += reflect.ValueOf(r).Field(i).Int()
			}
			f.SetInt(sum)
		}
	}
	return out
}
