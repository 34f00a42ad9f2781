package main

import (
	"math"
	"sort"
	"time"

	"moespark/internal/mathx"
)

// refNominalS is the reference round's CPU time on the nominal host, in
// seconds: about its median on the 2-vCPU Xeon host of the first capture.
// Host times are reported as CPU time scaled to that host (see hostScale), so
// this constant sets only their scale, not their spread.
const refNominalS = 0.05

// hostScale converts CPU times measured in a run to the nominal host: the
// nominal reference round over the run's median one. On a shared host the
// processor slows and recovers with its neighbours' load over tens of
// seconds to minutes, longer than a run; the reference round, run before
// every repetition, slows with it, so the scaled times move less from run
// to run than the raw ones.
func hostScale(refS []float64) float64 { return refNominalS / mathx.Median(refS) }

// refRound runs the reference round and returns its CPU time. It is a fixed
// computation of the benchmark's own, so no change to the simulator moves
// it: an event loop over a binary heap that updates tasks through pointers,
// then map writes and a sort over small records, the two kinds of work that
// dominate the simulator. Its data is built once and reused, so a round
// allocates nothing and never runs the garbage collector, whose cost would
// depend on the workload's live heap.
func refRound() time.Duration {
	if refState == nil {
		refState = newRefData()
	}
	start := cpuTime()
	refState.events(100_000)
	refState.records()
	refState.records()
	return cpuTime() - start
}

const (
	refNodes    = 256
	refPerNode  = 8
	refHeapSize = 1024
	refRecords  = 50_000
)

type refTask struct{ left, rate float64 }

type refEvent struct {
	at   float64
	node int
}

type refData struct {
	tasks [refNodes][refPerNode]*refTask
	heap  []refEvent
	recs  byLeft
	byKey map[uint64]*refTask
	// sink keeps the results live so the compiler cannot drop the work.
	sink float64
}

var refState *refData

func newRefData() *refData {
	d := &refData{heap: make([]refEvent, 0, refHeapSize), byKey: make(map[uint64]*refTask, refRecords)}
	for i := range d.tasks {
		for j := range d.tasks[i] {
			d.tasks[i][j] = &refTask{}
		}
	}
	for i := 0; i < refRecords; i++ {
		t := &refTask{}
		d.recs = append(d.recs, t)
		d.byKey[uint64(i)] = t
	}
	return d
}

// xorshift is the reference round's random source, restarted from the same
// state every round so every round does the same work.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

func (d *refData) events(steps int) {
	for i := range d.tasks {
		for j, t := range d.tasks[i] {
			*t = refTask{left: float64(j + 1), rate: 1 + float64(i%7)}
		}
	}
	h := d.heap[:0]
	for i := 0; i < refHeapSize; i++ {
		h = append(h, refEvent{float64(refHeapSize - i), i % refNodes})
		siftUp(h, len(h)-1)
	}
	rng := xorshift(88172645463325252)
	acc := 0.0
	for s := 0; s < steps; s++ {
		e := h[0]
		for _, t := range d.tasks[e.node] {
			if t.left -= t.rate * 0.01; t.left < 0 {
				t.left += 10
			}
			acc += math.Sqrt(t.left)
		}
		r := rng.next()
		h[0] = refEvent{e.at + float64(r%1000)/100, int(r % refNodes)}
		siftDown(h, 0)
	}
	d.sink += acc
}

func siftUp(h []refEvent, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h[p].at <= h[i].at {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func siftDown(h []refEvent, i int) {
	for {
		m, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && h[l].at < h[m].at {
			m = l
		}
		if r < len(h) && h[r].at < h[m].at {
			m = r
		}
		if m == i {
			return
		}
		h[m], h[i] = h[i], h[m]
		i = m
	}
}

// records gives every record a fresh value by position, writes it under a
// random key and sorts the records by value. The values by position are the
// same every round, so the sort does the same work.
func (d *refData) records() {
	rng := xorshift(2463534242)
	for _, t := range d.recs {
		r := rng.next()
		t.left = float64(r % 100_000)
		d.byKey[r%refRecords] = t
	}
	sort.Sort(d.recs)
	d.sink += d.recs[0].left + d.recs[len(d.recs)-1].left + float64(len(d.byKey))
}

type byLeft []*refTask

func (b byLeft) Len() int           { return len(b) }
func (b byLeft) Less(i, j int) bool { return b[i].left < b[j].left }
func (b byLeft) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }
