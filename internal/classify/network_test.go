package classify

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// weightBits hashes the bit pattern of every weight, layer by layer.
func weightBits(nw network) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, l := range nw {
		for _, w := range l.w {
			b := math.Float64bits(w)
			for i := range buf {
				buf[i] = byte(b >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestSeededNetworkFitsPinned pins a seeded MLP fit and a seeded
// ANNRegressor fit to the last bit: the weight hash after training (which
// covers the initialisation, the shuffled SGD order, the forward pass and
// backpropagation) and one prediction of each. The reproduced tables round
// these models' outputs, so they would not show a last-bit change.
func TestSeededNetworkFitsPinned(t *testing.T) {
	m := NewMLP([]int{6, 5}, 62)
	if err := m.Fit(threeBlobs(rand.New(rand.NewSource(61)), 60, 4, 1.5)); err != nil {
		t.Fatal(err)
	}
	if got, want := weightBits(m.weights), uint64(0x502249b06b64d461); got != want {
		t.Errorf("MLP weight hash %#x, want %#x", got, want)
	}
	x := []float64{4, 5, 6, 4}
	if label, err := m.Predict(x); err != nil || label != 1 {
		t.Errorf("MLP label %d (err %v), want 1", label, err)
	}
	acts := m.forward(x)
	for i, want := range []uint64{0x3fefef1ac2aef244, 0x3f6028182338dac2, 0x3f17a4a5ba9c1378} {
		if got := math.Float64bits(acts[len(acts)-1][i]); got != want {
			t.Errorf("MLP probability %d bits %#x, want %#x", i, got, want)
		}
	}

	r := rand.New(rand.NewSource(51))
	var samples []RegSample
	for i := 0; i < 200; i++ {
		x := []float64{r.Float64(), r.Float64()}
		samples = append(samples, RegSample{X: x, Y: 3*x[0] + 2*x[1] + 1})
	}
	reg := NewANNRegressor(52)
	if err := reg.Fit(samples); err != nil {
		t.Fatal(err)
	}
	if got, want := weightBits(reg.weights), uint64(0x499bfc4cbb5ef050); got != want {
		t.Errorf("ANN weight hash %#x, want %#x", got, want)
	}
	y, err := reg.Predict([]float64{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := math.Float64bits(y), uint64(0x4009efe3f5633078); got != want {
		t.Errorf("ANN prediction %v (bits %#x), want bits %#x", y, got, want)
	}
}
