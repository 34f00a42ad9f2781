package cluster

import (
	"fmt"
	"math"

	"moespark/internal/workload"
)

// NodeSpec is the hardware description of one computing node. The paper's
// testbed is uniform (every node a ReferenceNode), but real co-location
// fleets are heterogeneous: NodeSpec lets every node carry its own capacity
// and speed, while platform-wide behaviour (penalty shapes, watermark,
// startup latency) is the package's fixed platform model.
type NodeSpec struct {
	// RAMGB is the node's physical memory.
	RAMGB float64
	// Cores is the number of hardware threads. CPU demands are expressed as
	// fractions of a ReferenceNode, so a node with twice its cores hosts
	// twice the aggregate demand before saturating.
	Cores int
	// SpeedFactor scales executor processing rates on this node relative to
	// the paper's reference machine (1.0). Stragglers sit below 1, newer
	// hardware above.
	SpeedFactor float64
	// SwapGB is the node's swap space.
	SwapGB float64
	// OSReserveGB is memory unavailable to executors on this node.
	OSReserveGB float64
	// Rack is the node's failure domain: nodes sharing a rack share power
	// and top-of-rack networking, so correlated faults (RackStormEvents)
	// take them out together and spread-aware placement avoids stacking one
	// application's executors behind a single rack. Empty means no topology
	// information (every node its own implicit domain).
	Rack string
	// Zone is the coarser failure domain the rack belongs to (availability
	// zone / room). Informational for placers; empty means unknown.
	Zone string
}

// UsableGB is the node memory available to executors.
func (s NodeSpec) UsableGB() float64 { return s.RAMGB - s.OSReserveGB }

// Validate rejects physically meaningless specs.
func (s NodeSpec) Validate() error {
	for _, v := range []float64{s.RAMGB, s.SpeedFactor, s.SwapGB, s.OSReserveGB} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("cluster: non-finite value in node spec %+v", s)
		}
	}
	if s.RAMGB <= 0 || s.UsableGB() <= 0 {
		return fmt.Errorf("cluster: node spec has no usable memory (%+v)", s)
	}
	if s.Cores <= 0 {
		return fmt.Errorf("cluster: node spec needs positive cores (%+v)", s)
	}
	if s.SpeedFactor <= 0 {
		return fmt.Errorf("cluster: node spec needs a positive speed factor (%+v)", s)
	}
	if s.SwapGB < 0 || s.OSReserveGB < 0 {
		return fmt.Errorf("cluster: negative swap or OS reserve (%+v)", s)
	}
	return nil
}

// AllocatableGB is the memory a node with this spec advertises for
// reservations: the pressure watermark keeps a safety band below the
// physical limit, exactly like YARN's node-manager resource setting.
func (s NodeSpec) AllocatableGB() float64 { return pressureWatermark * s.UsableGB() }

// specFrom converts one workload node class into a node spec.
func specFrom(c workload.NodeClass) NodeSpec {
	return NodeSpec{
		RAMGB:       c.RAMGB,
		Cores:       c.Cores,
		SpeedFactor: c.SpeedFactor,
		SwapGB:      c.SwapGB,
		OSReserveGB: c.OSReserveGB,
		Rack:        c.Rack,
		Zone:        c.Zone,
	}
}
