package metrics

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"moespark/internal/cluster"
	"moespark/internal/mathx"
)

// QueueMetrics summarises an open-system run from the queueing-theory side:
// how long applications waited for execution, how long they stayed in the
// system, the tail of the latency distribution, and the completion
// throughput over time. These complement the paper's closed-batch STP/ANTT.
type QueueMetrics struct {
	// Apps is the number of completed applications measured.
	Apps int
	// MeanWaitSec averages each app's time from submission to the start of
	// useful execution (first executor spawn, or completion during
	// profiling).
	MeanWaitSec float64
	// MaxWaitSec is the worst per-app wait.
	MaxWaitSec float64
	// MeanSojournSec averages submission-to-completion time.
	MeanSojournSec float64
	// P50SojournSec, P95SojournSec and P99SojournSec are latency percentiles
	// of the sojourn time.
	P50SojournSec float64
	P95SojournSec float64
	P99SojournSec float64
	// MaxSojournSec is the worst per-app sojourn.
	MaxSojournSec float64
	// ThroughputJobsPerHour is completions divided by the span from the
	// first submission to the last completion.
	ThroughputJobsPerHour float64
	// Windows samples completion throughput in fixed windows when a window
	// length was given.
	Windows []ThroughputWindow
}

// ThroughputWindow is one windowed-throughput sample.
type ThroughputWindow struct {
	// StartSec and EndSec bound the window in simulation time.
	StartSec, EndSec float64
	// Completed counts applications finishing inside the window.
	Completed int
	// JobsPerHour is the window's completion rate.
	JobsPerHour float64
}

// Queueing computes the open-system metrics for a finished run. windowSec,
// when positive, additionally samples completion throughput in windows of
// that length from the first submission to the last completion; 0 samples
// none, and a negative or non-finite window is an error.
func Queueing(res *cluster.Result, windowSec float64) (QueueMetrics, error) {
	var q QueueMetrics
	if !(windowSec >= 0) || math.IsInf(windowSec, 1) {
		return q, fmt.Errorf("metrics: throughput window %v s must be finite and non-negative", windowSec)
	}
	if res == nil || len(res.Apps) == 0 {
		return q, errors.New("metrics: empty run")
	}
	waits := make([]float64, 0, len(res.Apps))
	sojourns := make([]float64, 0, len(res.Apps))
	firstSubmit := res.Apps[0].SubmitTime
	lastDone := 0.0
	for _, a := range res.Apps {
		sj := a.SojournSec()
		w := a.WaitSec()
		if sj <= 0 || w < 0 {
			return q, fmt.Errorf("%w: %s", ErrIncompleteRun, a.Job)
		}
		waits = append(waits, w)
		sojourns = append(sojourns, sj)
		if a.SubmitTime < firstSubmit {
			firstSubmit = a.SubmitTime
		}
		if a.DoneTime > lastDone {
			lastDone = a.DoneTime
		}
	}
	q.Apps = len(res.Apps)
	q.MeanWaitSec = mathx.Mean(waits)
	_, q.MaxWaitSec = mathx.MinMax(waits)
	q.MeanSojournSec = mathx.Mean(sojourns)
	q.P50SojournSec = mathx.Percentile(sojourns, 50)
	q.P95SojournSec = mathx.Percentile(sojourns, 95)
	q.P99SojournSec = mathx.Percentile(sojourns, 99)
	_, q.MaxSojournSec = mathx.MinMax(sojourns)
	if span := lastDone - firstSubmit; span > 0 {
		q.ThroughputJobsPerHour = float64(q.Apps) / span * 3600
	}
	if windowSec > 0 {
		q.Windows = throughputWindows(res, windowSec, firstSubmit, lastDone)
	}
	return q, nil
}

// throughputWindows buckets completions into fixed windows over
// [firstSubmit, lastDone]. Windows open at the first submission — not t=0 —
// so a late-starting arrival stream does not dilute the leading windows
// with empty time. Each window covers the half-open interval
// (StartSec, EndSec]: a completion landing exactly on a boundary is
// credited to the window whose EndSec claims to cover it. The final window
// is clamped to lastDone and its rate uses the actual covered span, so a
// partial tail window is not under-reported.
func throughputWindows(res *cluster.Result, windowSec, firstSubmit, lastDone float64) []ThroughputWindow {
	n := int(math.Ceil((lastDone - firstSubmit) / windowSec))
	if n < 1 {
		n = 1
	}
	wins := make([]ThroughputWindow, n)
	for i := range wins {
		wins[i].StartSec = firstSubmit + float64(i)*windowSec
		wins[i].EndSec = firstSubmit + float64(i+1)*windowSec
	}
	if wins[n-1].EndSec > lastDone {
		wins[n-1].EndSec = lastDone
	}
	for _, a := range res.Apps {
		i := int(math.Ceil((a.DoneTime-firstSubmit)/windowSec)) - 1
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		wins[i].Completed++
	}
	for i := range wins {
		if span := wins[i].EndSec - wins[i].StartSec; span > 0 {
			wins[i].JobsPerHour = float64(wins[i].Completed) / span * 3600
		}
	}
	return wins
}

// ClassQueueMetrics is the queueing summary of one tenant class.
type ClassQueueMetrics struct {
	// Class is the class name ("" groups untagged applications).
	Class string
	// Weight and Preemptible echo the class definition.
	Weight      float64
	Preemptible bool
	// PreemptKills counts executors this class lost to preemption.
	PreemptKills int
	QueueMetrics
}

// QueueingByClass computes per-tenant-class queueing metrics: the run's
// applications are grouped by class name and each group is measured like an
// independent stream (its windows open at the class's own first
// submission). Classes are ordered by descending weight, then name, so
// reports are deterministic.
func QueueingByClass(res *cluster.Result, windowSec float64) ([]ClassQueueMetrics, error) {
	if res == nil || len(res.Apps) == 0 {
		return nil, errors.New("metrics: empty run")
	}
	groups := map[string][]*cluster.App{}
	order := []string{}
	for _, a := range res.Apps {
		name := a.Class.Name
		if _, ok := groups[name]; !ok {
			order = append(order, name)
		}
		groups[name] = append(groups[name], a)
	}
	sort.SliceStable(order, func(i, j int) bool {
		wi, wj := groups[order[i]][0].Class.Weight, groups[order[j]][0].Class.Weight
		if wi != wj {
			return wi > wj
		}
		return order[i] < order[j]
	})
	out := make([]ClassQueueMetrics, 0, len(order))
	for _, name := range order {
		apps := groups[name]
		q, err := Queueing(&cluster.Result{Apps: apps}, windowSec)
		if err != nil {
			return nil, fmt.Errorf("metrics: class %q: %w", name, err)
		}
		cq := ClassQueueMetrics{
			Class:        name,
			Weight:       apps[0].Class.Weight,
			Preemptible:  apps[0].Class.Preemptible,
			QueueMetrics: q,
		}
		for _, a := range apps {
			cq.PreemptKills += a.PreemptKills
		}
		out = append(out, cq)
	}
	return out, nil
}
