package main

import (
	"math"
	"testing"

	"moespark/internal/cluster"
)

func TestParseNodeEvents(t *testing.T) {
	evs, err := parseNodeEvents("drain@600:3, fail@900:7,join@1200")
	if err != nil {
		t.Fatal(err)
	}
	want := []cluster.NodeEvent{
		{At: 600, Kind: cluster.NodeDrain, Node: 3},
		{At: 900, Kind: cluster.NodeFail, Node: 7},
		{At: 1200, Kind: cluster.NodeJoin},
	}
	if len(evs) != len(want) {
		t.Fatalf("%d events, want %d", len(evs), len(want))
	}
	for i := range want {
		if evs[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, evs[i], want[i])
		}
	}
	if evs, err := parseNodeEvents(""); err != nil || evs != nil {
		t.Errorf("empty spec: %v, %v", evs, err)
	}
	for _, bad := range []string{
		"drain@600",    // missing target
		"join@100:2",   // join takes no target
		"reboot@100:1", // unknown kind
		"drain@-5:1",   // negative time
		"drain@abc:1",  // bad time
		"drain@100:x",  // bad node
		"drain600:1",   // missing @
		"fail@100:-2",  // negative node
	} {
		if _, err := parseNodeEvents(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestBuildFleet(t *testing.T) {
	if specs, err := buildFleet("uniform", 40, 0, 0, 1); err != nil || specs != nil {
		t.Errorf("uniform fleet: %v, %v (want nil specs = default platform)", specs, err)
	}
	specs, err := buildFleet("bimodal", 10, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 10 {
		t.Errorf("bimodal fleet size = %d, want 10", len(specs))
	}
	again, err := buildFleet("bimodal", 10, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if specs[i] != again[i] {
			t.Errorf("node %d differs across identical seeds", i)
		}
	}
	if _, err := buildFleet("exotic", 10, 0, 0, 1); err == nil {
		t.Error("unknown fleet kind accepted")
	}
	if _, err := buildFleet("stragglers", 0, 0, 0, 1); err == nil {
		t.Error("zero-node fleet accepted")
	}
}

func TestParseClasses(t *testing.T) {
	mix, err := parseClasses("prod:4:0.2:cap30,ad-hoc:2:0.3,batch:1:0.5:preempt")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 3 {
		t.Fatalf("%d classes, want 3", len(mix))
	}
	prod := mix[0]
	if prod.Class.Name != "prod" || prod.Class.Weight != 4 || prod.Frac != 0.2 ||
		prod.MaxInputGB != 30 || prod.Class.Preemptible {
		t.Errorf("prod parsed as %+v", prod)
	}
	batch := mix[2]
	if !batch.Class.Preemptible || batch.Class.Weight != 1 || batch.Frac != 0.5 || batch.MaxInputGB != 0 {
		t.Errorf("batch parsed as %+v", batch)
	}
	short, err := parseClasses("latency-batch")
	if err != nil || len(short) != 2 || short[0].Class.Name != "latency" {
		t.Errorf("latency-batch shorthand: %+v, %v", short, err)
	}
	if mix, err := parseClasses(""); err != nil || mix != nil {
		t.Errorf("empty spec: %+v, %v", mix, err)
	}
	for _, bad := range []string{
		"latency",               // missing weight and share
		"latency:4",             // missing share
		"latency:x:0.5",         // bad weight
		"latency:-1:0.5",        // negative weight
		"latency:4:0",           // zero share
		"latency:4:1.5",         // share beyond 1
		"latency:4:0.5:warp",    // unknown option
		"latency:4:0.5:cap",     // empty cap
		"latency:4:0.5:cap-3",   // negative cap
		"latency:4:0.5:capache", // non-numeric cap
	} {
		if _, err := parseClasses(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestBuildPolicyPlacers covers -policy and -placer: a known placer is
// accepted and an unknown placer or policy is an error.
func TestBuildPolicyPlacers(t *testing.T) {
	if _, err := buildPolicy("oracle", "speed", 1); err != nil {
		t.Errorf("speed placer rejected: %v", err)
	}
	if _, err := buildPolicy("oracle", "warp", 1); err == nil {
		t.Error("unknown placer accepted")
	}
	if _, err := buildPolicy("telepathy", "", 1); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestBuildPolicyAdapt covers -policy moe-adaptive: it builds the
// feedback-driven MoE pipeline.
func TestBuildPolicyAdapt(t *testing.T) {
	d, err := buildPolicy("moe-adaptive", "firstfit", 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "MoE-adaptive" {
		t.Errorf("adaptive policy named %q", d.Name())
	}
}

// TestBuildDriftArrivals covers the drift values of -arrivals: each builds
// a reproducible stream of the requested length, and an unknown drift value
// is an error.
func TestBuildDriftArrivals(t *testing.T) {
	for _, kind := range []string{"drift-growth", "drift-regimes"} {
		stream, err := buildArrivals(kind, 20, 60, 1)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(stream) != 20 {
			t.Errorf("%s: %d arrivals, want 20", kind, len(stream))
		}
		again, err := buildArrivals(kind, 20, 60, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range stream {
			if stream[i].At != again[i].At || stream[i].Job.InputGB != again[i].Job.InputGB {
				t.Errorf("%s: arrival %d not reproducible", kind, i)
			}
		}
	}
	if _, err := buildArrivals("drift-bogus", 10, 60, 1); err == nil {
		t.Error("unknown drift workload accepted")
	}
}

// TestBuildArrivals covers -arrivals: each stationary process builds a
// reproducible stream of the requested length, and a NaN -rate or an
// unknown process is an error, not a hang or a silent default.
func TestBuildArrivals(t *testing.T) {
	for _, kind := range []string{"poisson", "bursty", "diurnal"} {
		stream, err := buildArrivals(kind, 20, 60, 1)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(stream) != 20 {
			t.Errorf("%s: %d arrivals, want 20", kind, len(stream))
		}
		again, err := buildArrivals(kind, 20, 60, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range stream {
			if stream[i].At != again[i].At || stream[i].Job.InputGB != again[i].Job.InputGB {
				t.Errorf("%s: arrival %d not reproducible", kind, i)
			}
		}
	}
	bad := []struct {
		name, kind string
		rate       float64
	}{
		{"NaN bursty rate", "bursty", math.NaN()},
		{"NaN diurnal rate", "diurnal", math.NaN()},
		{"unknown process", "chaotic", 60},
	}
	for _, tc := range bad {
		if _, err := buildArrivals(tc.kind, 20, tc.rate, 1); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestParseRacks(t *testing.T) {
	if r, z, err := parseRacks(""); err != nil || r != 0 || z != 0 {
		t.Errorf("empty -racks: (%d,%d,%v), want (0,0,nil)", r, z, err)
	}
	if r, z, err := parseRacks("8"); err != nil || r != 8 || z != 1 {
		t.Errorf("-racks 8: (%d,%d,%v), want (8,1,nil)", r, z, err)
	}
	if r, z, err := parseRacks("8:2"); err != nil || r != 8 || z != 2 {
		t.Errorf("-racks 8:2: (%d,%d,%v), want (8,2,nil)", r, z, err)
	}
	for _, bad := range []string{"0", "-3", "x", "8:", "8:0", "8:-1", "8:y", ":2"} {
		if _, _, err := parseRacks(bad); err == nil {
			t.Errorf("-racks %q accepted", bad)
		}
	}
}

func TestParseRackStorm(t *testing.T) {
	d, f, start, span, warn, rejoin, err := parseRackStorm("1:2@400:600:60:180")
	if err != nil || d != 1 || f != 2 || start != 400 || span != 600 || warn != 60 || rejoin != 180 {
		t.Errorf("full storm spec: (%d,%d,%v,%v,%v,%v,%v)", d, f, start, span, warn, rejoin, err)
	}
	d, f, start, span, warn, rejoin, err = parseRackStorm("0:1@300:300")
	if err != nil || d != 0 || f != 1 || start != 300 || span != 300 || warn != 0 || rejoin != 0 {
		t.Errorf("minimal storm spec: (%d,%d,%v,%v,%v,%v,%v)", d, f, start, span, warn, rejoin, err)
	}
	for _, bad := range []string{
		"", "1:2", "@400:600", "1@400:600", "x:2@400:600", "1:y@400:600",
		"-1:2@400:600", "1:-2@400:600", "1:2@400", "1:2@400:600:60:180:9", "1:2@a:600",
	} {
		if _, _, _, _, _, _, err := parseRackStorm(bad); err == nil {
			t.Errorf("-rack-storm %q accepted", bad)
		}
	}
}

func TestBuildFleetRacked(t *testing.T) {
	specs, err := buildFleet("uniform", 12, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 12 {
		t.Fatalf("racked uniform fleet size = %d, want 12", len(specs))
	}
	racks := map[string]bool{}
	zones := map[string]bool{}
	for i, s := range specs {
		if s.Rack == "" || s.Zone == "" {
			t.Fatalf("node %d unracked: %+v", i, s)
		}
		racks[s.Rack] = true
		zones[s.Zone] = true
	}
	if len(racks) != 4 || len(zones) != 2 {
		t.Errorf("%d racks and %d zones, want 4 and 2", len(racks), len(zones))
	}
	specs, err = buildFleet("bimodal", 10, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Rack == "" {
		t.Error("bimodal fleet not racked")
	}
	// More racks than nodes must fail, and an unracked uniform fleet stays
	// the nil default platform.
	if _, err := buildFleet("uniform", 3, 4, 1, 1); err == nil {
		t.Error("4 racks over 3 nodes accepted")
	}
	if specs, err := buildFleet("uniform", 12, 0, 0, 1); err != nil || specs != nil {
		t.Errorf("unracked uniform fleet: (%v, %v), want nil default", specs, err)
	}
}
