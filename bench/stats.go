package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/bits"
	"syscall"
	"time"

	"moespark/internal/mathx"
)

// summary is one metric's distribution over the repetitions of a run.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// CI95 is the half-width of the 95% confidence interval of the mean. It
	// is a diagnostic only: the repetition count never depends on it, so
	// run length is the same on every commit.
	CI95    float64   `json:"ci95_half_width,omitempty"`
	Samples []float64 `json:"samples"`
}

func summarize(samples []float64) summary {
	s := summary{
		Median:  mathx.Median(samples),
		Q1:      mathx.Percentile(samples, 25),
		Q3:      mathx.Percentile(samples, 75),
		Samples: samples,
	}
	if len(samples) > 1 {
		_, s.CI95 = mathx.MeanConfidence95(samples)
	}
	return s
}

// perKApp normalises a per-repetition total to a per-1000-apps rate.
func perKApp(total float64, apps int) float64 { return total / float64(apps) * 1000 }

// cpuTime is the CPU time the process has used so far, user and system, over
// all its threads: the simulation's and the garbage collector's. Unlike wall
// time it leaves out the time other processes ran and, in a virtual machine,
// the time the host gave the processor to another guest (steal time), which
// on a shared host is much of the noise from one run to the next.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // only a bad pointer or who argument can fail it
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// histogram counts durations in log2-nanosecond buckets: bucket i holds
// durations in [2^(i-1), 2^i) ns, bucket 0 holds zero.
type histogram [65]int64

func (h *histogram) add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h[bits.Len64(uint64(d))]++
}

func (h *histogram) count() int64 {
	var n int64
	for _, c := range h {
		n += c
	}
	return n
}

// quantile estimates the q-quantile (0 < q <= 1) in nanoseconds by linear
// interpolation inside the bucket that holds it, so the estimate always lies
// in the same bucket as the exact order statistic.
func (h *histogram) quantile(q float64) float64 {
	n := h.count()
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var cum int64
	for i, c := range h {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo, hi := bucketBounds(i)
			return lo + (rank-float64(cum))/float64(c)*(hi-lo)
		}
		cum += c
	}
	_, hi := bucketBounds(len(h) - 1)
	return hi
}

func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 1
	}
	return math.Ldexp(1, i-1), math.Ldexp(1, i)
}

// metricDef describes one reported metric. Bound is the share of the
// parent's value by which the metric may worsen before a change counts as a
// regression, as BENCHMARK.json states it.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
	// Layer names the layer a per-layer metric belongs to.
	Layer string
}

// regressed applies the bound rule: the child regresses when it is worse
// than the parent by more than |parent|*Bound. A parent of zero therefore
// regresses on any worsening.
func (m metricDef) regressed(parent, child float64) bool {
	worse := child - parent
	if m.Better == "higher" {
		worse = -worse
	}
	return worse > math.Abs(parent)*m.Bound
}

// fingerprint hashes a run's simulated outcome: FNV-64a over each app's
// submit, ready, start and done times, then the kill, migration and
// lost-work counters. Two runs with equal fingerprints simulated the same
// thing, bit for bit.
type fingerprint struct{ h hash.Hash64 }

func newFingerprint() fingerprint { return fingerprint{fnv.New64a()} }

func (f fingerprint) float(v float64) { f.uint(math.Float64bits(v)) }

func (f fingerprint) uint(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	f.h.Write(b[:])
}

func (f fingerprint) sum() uint64 { return f.h.Sum64() }
