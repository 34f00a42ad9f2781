package experiments

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// TestOpenStreamStudiesPinned pins the five open-stream studies bit for bit.
// At 16 mixes every study averages at least two streams, so the pooling
// order is part of what is pinned. %+v prints each float in the shortest
// form that round-trips, so equal hashes mean equal bits.
func TestOpenStreamStudiesPinned(t *testing.T) {
	ctx := DefaultContext()
	ctx.MixesPerScenario = 16
	studies := []struct {
		name string
		want uint64
		run  func(Context) (any, error)
	}{
		{"opensys", 0x6ee29c9f09fd3e49, func(c Context) (any, error) { return OpenSystem(c) }},
		{"hetero", 0xa7dc58726e435d1d, func(c Context) (any, error) { return Hetero(c) }},
		{"tenants", 0x8ce66126eec19220, func(c Context) (any, error) { return Tenants(c) }},
		{"drift", 0x46e573930a50d3c7, func(c Context) (any, error) { return Drift(c) }},
		{"faults", 0xded33b62697d5a7c, func(c Context) (any, error) { return Faults(c) }},
	}
	for _, s := range studies {
		r, err := s.run(ctx)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		text := fmt.Sprintf("%+v", r)
		h := fnv.New64a()
		h.Write([]byte(text))
		if got := h.Sum64(); got != s.want {
			t.Errorf("%s: hash %#x, want %#x; result:\n%s", s.name, got, s.want, text)
		}
	}
}
