package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// NodeClass is the hardware description of one node class in a simulated
// fleet. It mirrors the cluster package's per-node spec (the cluster package
// converts, since it already imports workload) so fleet generation stays next
// to the other seeded generators.
type NodeClass struct {
	// RAMGB is physical memory.
	RAMGB float64
	// Cores is the hardware-thread count.
	Cores int
	// SpeedFactor scales processing rates relative to the paper's reference
	// machine.
	SpeedFactor float64
	// SwapGB is swap space.
	SwapGB float64
	// OSReserveGB is memory unavailable to executors.
	OSReserveGB float64
	// Rack is the node's failure domain label (empty: no topology). Fleet
	// generators leave it empty; AssignRacks stamps contiguous rack blocks
	// over a generated fleet, the way machines are racked in delivery order.
	Rack string
	// Zone is the coarser failure domain the rack belongs to.
	Zone string
}

// PaperNode is the paper's testbed machine: 64 GB RAM, 16 hardware threads,
// 16 GB swap, 4 GB OS reserve.
func PaperNode() NodeClass {
	return NodeClass{RAMGB: 64, Cores: 16, SpeedFactor: 1, SwapGB: 16, OSReserveGB: 4}
}

// BigNode is a memory-rich, faster machine for bimodal fleets.
func BigNode() NodeClass {
	return NodeClass{RAMGB: 128, Cores: 32, SpeedFactor: 1.25, SwapGB: 32, OSReserveGB: 6}
}

// LittleNode is a small, slower machine for bimodal fleets.
func LittleNode() NodeClass {
	return NodeClass{RAMGB: 32, Cores: 8, SpeedFactor: 0.75, SwapGB: 8, OSReserveGB: 3}
}

// UniformFleet returns n identical nodes of the given class (the paper's
// homogeneous testbed when class is PaperNode).
func UniformFleet(n int, class NodeClass) ([]NodeClass, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: need a positive fleet size, got %d", n)
	}
	fleet := make([]NodeClass, n)
	for i := range fleet {
		fleet[i] = class
	}
	return fleet, nil
}

// BimodalFleet returns an n-node big/little mix: each node is independently
// the big class with probability bigFrac, else the little class. The same
// seed yields the identical fleet.
func BimodalFleet(n int, big, little NodeClass, bigFrac float64, rng *rand.Rand) ([]NodeClass, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: need a positive fleet size, got %d", n)
	}
	if bigFrac < 0 || bigFrac > 1 || math.IsNaN(bigFrac) {
		return nil, fmt.Errorf("workload: big-node fraction %v outside [0,1]", bigFrac)
	}
	fleet := make([]NodeClass, n)
	for i := range fleet {
		if rng.Float64() < bigFrac {
			fleet[i] = big
		} else {
			fleet[i] = little
		}
	}
	return fleet, nil
}

// AssignRacks stamps rack and zone labels over a fleet in place (and returns
// it): the fleet is cut into racks contiguous blocks — machines are racked in
// delivery order, so generated node classes stay clustered the way real
// heterogeneous fleets are — and the racks are spread round-robin over zones
// many zones. Rack r gets label "rack-r" and zone "zone-(r mod zones)".
func AssignRacks(fleet []NodeClass, racks, zones int) ([]NodeClass, error) {
	if len(fleet) == 0 {
		return nil, fmt.Errorf("workload: cannot rack an empty fleet")
	}
	if racks <= 0 || racks > len(fleet) {
		return nil, fmt.Errorf("workload: rack count %d outside [1, %d]", racks, len(fleet))
	}
	if zones <= 0 || zones > racks {
		return nil, fmt.Errorf("workload: zone count %d outside [1, %d]", zones, racks)
	}
	for i := range fleet {
		r := i * racks / len(fleet)
		fleet[i].Rack = fmt.Sprintf("rack-%d", r)
		fleet[i].Zone = fmt.Sprintf("zone-%d", r%zones)
	}
	return fleet, nil
}

// StragglerFleet returns n nodes of the base class where a stragglerFrac
// fraction carries a long-tail speed factor: stragglers draw their speed from
// a power-law-shaped tail on [minSpeed, base speed), so most stragglers are
// mildly slow and a few are crippling — the classic straggler profile. The
// same seed yields the identical fleet.
func StragglerFleet(n int, base NodeClass, stragglerFrac, minSpeed float64, rng *rand.Rand) ([]NodeClass, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: need a positive fleet size, got %d", n)
	}
	if stragglerFrac < 0 || stragglerFrac > 1 || math.IsNaN(stragglerFrac) {
		return nil, fmt.Errorf("workload: straggler fraction %v outside [0,1]", stragglerFrac)
	}
	if !(minSpeed > 0 && minSpeed < base.SpeedFactor) {
		return nil, fmt.Errorf("workload: straggler floor speed %v must lie in (0, %v)", minSpeed, base.SpeedFactor)
	}
	fleet := make([]NodeClass, n)
	for i := range fleet {
		fleet[i] = base
		if rng.Float64() < stragglerFrac {
			// u^3 concentrates draws near 0, putting most stragglers close to
			// the base speed and a thin tail near the floor.
			tail := math.Pow(rng.Float64(), 3)
			fleet[i].SpeedFactor = base.SpeedFactor - tail*(base.SpeedFactor-minSpeed)
		}
	}
	return fleet, nil
}
