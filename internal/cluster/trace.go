package cluster

// Trace records periodic per-node utilization samples, the data behind the
// paper's Figure 7 heatmaps. The node set may vary over a run (joins, drains,
// failures), so rows are ragged: row i covers exactly the nodes alive at
// sample i, identified by NodeIDs[i].
type Trace struct {
	// Interval between samples in seconds.
	Interval float64
	// Times holds the sample timestamps.
	Times []float64
	// NodeIDs[i][k] is the node ID of column k in sample i. Failed nodes
	// drop out of subsequent samples; joined nodes appear from their join.
	NodeIDs [][]int
	// CPU[i][k] is the CPU utilization (0..1) of node NodeIDs[i][k] at
	// sample i.
	CPU [][]float64
	// MemGB[i][k] is the actual memory use of node NodeIDs[i][k] at sample i.
	MemGB [][]float64

	nextSample float64
}

func newTrace(interval float64) *Trace {
	return &Trace{Interval: interval}
}

func (t *Trace) nextSampleTime(now float64) float64 {
	if t.nextSample < now {
		t.nextSample = now
	}
	return t.nextSample
}

func (t *Trace) maybeSample(now float64, nodes []*Node) {
	const slack = 1e-6
	for now+slack >= t.nextSample {
		alive := 0
		for _, n := range nodes {
			if n.state != NodeFailed && n.state != NodeRemoved {
				alive++
			}
		}
		ids := make([]int, 0, alive)
		cpu := make([]float64, 0, alive)
		mem := make([]float64, 0, alive)
		for _, n := range nodes {
			if n.state == NodeFailed || n.state == NodeRemoved {
				continue
			}
			ids = append(ids, n.ID)
			cpu = append(cpu, n.Utilization())
			mem = append(mem, n.ActualGB())
		}
		t.Times = append(t.Times, t.nextSample)
		t.NodeIDs = append(t.NodeIDs, ids)
		t.CPU = append(t.CPU, cpu)
		t.MemGB = append(t.MemGB, mem)
		t.nextSample += t.Interval
	}
}

// MeanUtilization returns the time-averaged CPU utilization across nodes and
// samples.
func (t *Trace) MeanUtilization() float64 {
	if len(t.CPU) == 0 {
		return 0
	}
	var sum float64
	var n int
	for _, row := range t.CPU {
		for _, u := range row {
			sum += u
			n++
		}
	}
	return sum / float64(n)
}
