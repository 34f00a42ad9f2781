package classify

import (
	"math"
	"math/rand"
)

// network is the feed-forward core that MLP and ANNRegressor share: fully
// connected layers with tanh hidden units and a linear output layer,
// trained by per-sample SGD. The two models differ only in what they put
// on the output layer (softmax or nothing) and in the error they feed back.
type network []matrixLayer

type matrixLayer struct {
	in, out int
	w       []float64 // (in+1) x out, row-major, last row is bias
}

func (l *matrixLayer) at(i, j int) float64     { return l.w[i*l.out+j] }
func (l *matrixLayer) add(i, j int, d float64) { l.w[i*l.out+j] += d }

// newNetwork returns a network with the given layer sizes (input first,
// output last), each weight drawn from rng as N(0, 1/in), layer by layer.
func newNetwork(sizes []int, rng *rand.Rand) network {
	nw := make(network, len(sizes)-1)
	for i := range nw {
		in, out := sizes[i], sizes[i+1]
		l := matrixLayer{in: in, out: out, w: make([]float64, (in+1)*out)}
		scale := 1 / math.Sqrt(float64(in))
		for j := range l.w {
			l.w[j] = rng.NormFloat64() * scale
		}
		nw[i] = l
	}
	return nw
}

// sgd runs epochs passes of step over samples 0..n-1, each pass in a fresh
// order shuffled by rng.
func sgd(rng *rand.Rand, n, epochs int, step func(ix int)) {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, ix := range order {
			step(ix)
		}
	}
}

// forward runs the network, returning every layer's activations:
// activations[0] is the input and the last entry the output layer's linear
// values, which the caller may transform in place.
func (nw network) forward(x []float64) [][]float64 {
	acts := make([][]float64, 0, len(nw)+1)
	acts = append(acts, x)
	cur := x
	for li, l := range nw {
		next := make([]float64, l.out)
		for j := 0; j < l.out; j++ {
			s := l.at(l.in, j) // bias row
			for i := 0; i < l.in; i++ {
				s += l.at(i, j) * cur[i]
			}
			next[j] = s
		}
		if li < len(nw)-1 {
			for j := range next {
				next[j] = math.Tanh(next[j])
			}
		}
		acts = append(acts, next)
		cur = next
	}
	return acts
}

// backprop takes one SGD step of size rate, given the activations of a
// forward pass and the loss gradient delta at the output layer's linear
// values.
func (nw network) backprop(acts [][]float64, delta []float64, rate float64) {
	for li := len(nw) - 1; li >= 0; li-- {
		l := &nw[li]
		prev := acts[li]
		var prevDelta []float64
		if li > 0 {
			prevDelta = make([]float64, l.in)
			for i := 0; i < l.in; i++ {
				var g float64
				for j := 0; j < l.out; j++ {
					g += l.at(i, j) * delta[j]
				}
				// tanh'(a) = 1 - a².
				prevDelta[i] = g * (1 - prev[i]*prev[i])
			}
		}
		for j := 0; j < l.out; j++ {
			step := rate * delta[j]
			for i := 0; i < l.in; i++ {
				l.add(i, j, -step*prev[i])
			}
			l.add(l.in, j, -step) // bias
		}
		delta = prevDelta
	}
}
