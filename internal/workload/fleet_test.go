package workload

import (
	"math"
	"math/rand"
	"testing"
)

func TestUniformFleet(t *testing.T) {
	fleet, err := UniformFleet(7, PaperNode())
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 7 {
		t.Fatalf("fleet size = %d, want 7", len(fleet))
	}
	for i, n := range fleet {
		if n != PaperNode() {
			t.Errorf("node %d = %+v, want the paper node", i, n)
		}
	}
	if _, err := UniformFleet(0, PaperNode()); err == nil {
		t.Error("zero-size fleet accepted")
	}
}

func TestBimodalFleetSeededAndMixed(t *testing.T) {
	a, err := BimodalFleet(100, BigNode(), LittleNode(), 0.5, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := BimodalFleet(100, BigNode(), LittleNode(), 0.5, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	var bigs int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d differs across identical seeds", i)
		}
		if a[i] == BigNode() {
			bigs++
		} else if a[i] != LittleNode() {
			t.Fatalf("node %d is neither class: %+v", i, a[i])
		}
	}
	if bigs < 30 || bigs > 70 {
		t.Errorf("bigs = %d of 100 at bigFrac 0.5, badly unbalanced", bigs)
	}
	if _, err := BimodalFleet(10, BigNode(), LittleNode(), 1.5, rand.New(rand.NewSource(1))); err == nil {
		t.Error("bigFrac > 1 accepted")
	}
}

func TestStragglerFleetTail(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	fleet, err := StragglerFleet(200, PaperNode(), 0.25, 0.4, rng)
	if err != nil {
		t.Fatal(err)
	}
	var stragglers int
	for i, n := range fleet {
		if n.SpeedFactor > 1 || n.SpeedFactor < 0.4 {
			t.Errorf("node %d speed %v outside [0.4, 1]", i, n.SpeedFactor)
		}
		if n.SpeedFactor < 1 {
			stragglers++
		}
		base := PaperNode()
		base.SpeedFactor = n.SpeedFactor
		if n != base {
			t.Errorf("node %d changed non-speed fields: %+v", i, n)
		}
	}
	if stragglers < 25 || stragglers > 75 {
		t.Errorf("stragglers = %d of 200 at frac 0.25", stragglers)
	}
	if _, err := StragglerFleet(10, PaperNode(), 0.25, 1.5, rand.New(rand.NewSource(1))); err == nil {
		t.Error("floor speed above base accepted")
	}
}

// TestStragglerFleetRejectsBadFloor: the floor speed must lie in
// (0, base speed); NaN and ±Inf fail that check, and so does any floor
// against a NaN base speed.
func TestStragglerFleetRejectsBadFloor(t *testing.T) {
	nanBase := PaperNode()
	nanBase.SpeedFactor = math.NaN()
	for _, tc := range []struct {
		name     string
		base     NodeClass
		minSpeed float64
	}{
		{"NaN floor", PaperNode(), math.NaN()},
		{"+Inf floor", PaperNode(), math.Inf(1)},
		{"-Inf floor", PaperNode(), math.Inf(-1)},
		{"zero floor", PaperNode(), 0},
		{"floor at base speed", PaperNode(), PaperNode().SpeedFactor},
		{"NaN base speed", nanBase, 0.4},
	} {
		fleet, err := StragglerFleet(10, tc.base, 0.5, tc.minSpeed, rand.New(rand.NewSource(1)))
		if err == nil {
			t.Errorf("%s accepted: %+v", tc.name, fleet)
		}
	}
}

// TestAssignRacks pins the contiguous-block racking and its validation.
func TestAssignRacks(t *testing.T) {
	fleet, err := UniformFleet(10, PaperNode())
	if err != nil {
		t.Fatal(err)
	}
	if fleet, err = AssignRacks(fleet, 4, 2); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	zones := map[string]string{}
	prev := ""
	for i, n := range fleet {
		if n.Rack == "" || n.Zone == "" {
			t.Fatalf("node %d unracked: %+v", i, n)
		}
		counts[n.Rack]++
		if z, ok := zones[n.Rack]; ok && z != n.Zone {
			t.Errorf("rack %s spans zones %s and %s", n.Rack, z, n.Zone)
		}
		zones[n.Rack] = n.Zone
		// Contiguous blocks: a rack label never reappears after it ends.
		if n.Rack != prev && counts[n.Rack] > 1 {
			t.Errorf("rack %s is not contiguous", n.Rack)
		}
		prev = n.Rack
	}
	if len(counts) != 4 {
		t.Fatalf("%d racks, want 4", len(counts))
	}
	zoneSet := map[string]bool{}
	//moevet:allow maporder order-independent set collection
	for _, z := range zones {
		zoneSet[z] = true
	}
	if len(zoneSet) != 2 {
		t.Errorf("%d zones, want 2", len(zoneSet))
	}
	for _, bad := range [][2]int{{0, 1}, {11, 1}, {4, 0}, {2, 3}} {
		if _, err := AssignRacks(fleet, bad[0], bad[1]); err == nil {
			t.Errorf("AssignRacks(%d racks, %d zones) accepted", bad[0], bad[1])
		}
	}
	if _, err := AssignRacks(nil, 1, 1); err == nil {
		t.Error("empty fleet accepted")
	}
}
