// Package features implements the paper's runtime feature pipeline: the 22
// raw features of Table 2 (collected in the real system via vmstat, Linux
// perf and PAPI), min-max scaling to [0,1] with bounds persisted from
// training, PCA reduction to the top components covering >=95 % of variance,
// and Varimax-based attribution of variance back to raw features (Figure 4).
package features

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"moespark/internal/mathx"
)

// NumRaw is the number of raw runtime features (Table 2).
const NumRaw = 22

// Indices of the raw features, in the paper's importance order (Table 2).
const (
	L1TCM  = iota // L1 total cache miss rate
	L1DCM         // L1 data cache miss rate
	VCache        // % of memory used as cache
	L1STM         // L1 cache store miss rate
	BO            // blocks sent per second
	L2TCM         // L2 total cache miss rate
	L3TCM         // L3 total cache miss rate
	CS            // context switches per second
	FLOPS         // floating point operations per second
	IN            // interrupts per second
	L2DCM         // L2 data cache miss rate
	L2LDM         // L2 cache load miss rate
	L1ICM         // L1 instruction cache miss rate
	SWPD          // % of virtual memory used
	L2STM         // L2 cache store miss rate
	IPC           // instructions per cycle
	L1LDM         // L1 cache load miss rate
	L2ICM         // L2 instruction cache miss rate
	ID            // % of idle time
	WA            // % of time waiting on IO
	US            // % spent on user time
	SY            // % spent on kernel time
)

// Names holds the abbreviation of each raw feature, indexed by the constants
// above.
var Names = [NumRaw]string{
	"L1_TCM", "L1_DCM", "vcache", "L1_STM", "bo", "L2_TCM", "L3_TCM", "cs",
	"FLOPs", "in", "L2_DCM", "L2_LDM", "L1_ICM", "swpd", "L2_STM", "IPC",
	"L1_LDM", "L2_ICM", "ID", "WA", "US", "SY",
}

// Descriptions holds the human-readable description of each raw feature.
var Descriptions = [NumRaw]string{
	"L1 total cache miss rate", "L1 data cache miss rate",
	"% of memory used as cache", "L1 cache store miss rate",
	"# blocks sent (/s)", "L2 total cache miss rate",
	"L3 total cache miss rate", "# context switches / s",
	"# floating point operations / s", "# interrupts / s",
	"L2 data cache miss rate", "L2 cache load miss rate",
	"L1 instr. cache miss rate", "% of virtual memory used",
	"L2 cache store miss rate", "instructions per cycle",
	"L1 cache load miss rate", "L2 instr. cache miss rate",
	"% of idle time", "% of time on IO waiting",
	"% spent on user time", "% spent on kernel time",
}

// Vector is one raw feature observation.
type Vector [NumRaw]float64

// Scaler rescales each raw feature to [0,1] using per-feature bounds found at
// training time; unseen runtime values are clamped into the training range,
// exactly as the paper records min/max at training and reuses them at
// deployment.
type Scaler struct {
	Min, Max Vector
}

// FitScaler computes per-feature min/max bounds over the training samples.
func FitScaler(samples []Vector) (*Scaler, error) {
	if len(samples) == 0 {
		return nil, errors.New("features: no samples to fit scaler")
	}
	s := &Scaler{Min: samples[0], Max: samples[0]}
	for _, v := range samples[1:] {
		for i, x := range v {
			if x < s.Min[i] {
				s.Min[i] = x
			}
			if x > s.Max[i] {
				s.Max[i] = x
			}
		}
	}
	return s, nil
}

// Apply scales one raw vector into [0,1]^22, clamping out-of-range values.
// Features that were constant during training map to 0.
func (s *Scaler) Apply(v Vector) Vector {
	var out Vector
	for i, x := range v {
		span := s.Max[i] - s.Min[i]
		if span <= 0 {
			out[i] = 0
			continue
		}
		out[i] = mathx.Clamp((x-s.Min[i])/span, 0, 1)
	}
	return out
}

// Pipeline is the full trained feature pipeline: scaling followed by PCA
// projection. It is fitted once offline and persisted for runtime use.
type Pipeline struct {
	Scaler *Scaler
	PCA    *mathx.PCA
}

// PipelineConfig controls fitting. The zero value requests the paper's
// setting: as many PCs as needed for 95 % variance, capped at 5.
type PipelineConfig struct {
	// Components fixes the number of PCs; 0 means derive from VarianceTarget.
	Components int
	// VarianceTarget is the fraction of variance to retain when Components
	// is 0. Defaults to 0.95.
	VarianceTarget float64
	// MaxComponents caps the derived number of components. Defaults to 5.
	MaxComponents int
}

func (c PipelineConfig) withDefaults() PipelineConfig {
	if c.VarianceTarget == 0 {
		c.VarianceTarget = 0.95
	}
	if c.MaxComponents == 0 {
		c.MaxComponents = 5
	}
	return c
}

// FitPipeline fits the scaler and PCA on the training samples.
func FitPipeline(samples []Vector, cfg PipelineConfig) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	if len(samples) < 2 {
		return nil, errors.New("features: need at least 2 samples to fit pipeline")
	}
	scaler, err := FitScaler(samples)
	if err != nil {
		return nil, err
	}
	x := mathx.NewMatrix(len(samples), NumRaw)
	for i, v := range samples {
		scaled := scaler.Apply(v)
		copy(x.Data[i*NumRaw:(i+1)*NumRaw], scaled[:])
	}
	k := cfg.Components
	pca, err := mathx.FitPCA(x, k, cfg.VarianceTarget)
	if err != nil {
		return nil, fmt.Errorf("features: fitting PCA: %w", err)
	}
	if k <= 0 && pca.K > cfg.MaxComponents {
		// Refit with the hard cap (cheap: same eigen decomposition size).
		pca, err = mathx.FitPCA(x, cfg.MaxComponents, 0)
		if err != nil {
			return nil, fmt.Errorf("features: refitting capped PCA: %w", err)
		}
	}
	return &Pipeline{Scaler: scaler, PCA: pca}, nil
}

// Transform maps one raw runtime vector to principal-component space.
func (p *Pipeline) Transform(v Vector) ([]float64, error) {
	scaled := p.Scaler.Apply(v)
	return p.PCA.Transform(scaled[:])
}

// Components returns the number of PCs the pipeline keeps.
func (p *Pipeline) Components() int { return p.PCA.K }

// Project maps one raw runtime vector to principal-component space and
// measures how far it sits off the training manifold, scaling v once. It
// writes the PCs into pcs, which must hold Components() values, and returns
// the reconstruction residual: the Euclidean distance between the scaled
// vector and its projection back from PC space. Points far off the training
// manifold can project close to a cluster while having a large residual, so
// confidence checks should include it. The PCs are Transform's: both go
// through PCA.TransformInto.
func (p *Pipeline) Project(v Vector, pcs []float64) (residual float64, err error) {
	scaled := p.Scaler.Apply(v)
	if err := p.PCA.TransformInto(scaled[:], pcs); err != nil {
		return 0, err
	}
	var sum float64
	for r, x := range scaled {
		recon := p.PCA.Mean[r]
		for c, pc := range pcs {
			recon += p.PCA.Components.At(r, c) * pc
		}
		d := x - recon
		sum += d * d
	}
	return math.Sqrt(sum), nil
}

// ExplainedRatio exposes the per-PC variance fractions (Figure 4a).
func (p *Pipeline) ExplainedRatio() []float64 { return p.PCA.ExplainedRatio() }

// Importance is the contribution of one raw feature to the retained PCA
// space, computed from Varimax-rotated loadings (Figure 4b).
type Importance struct {
	Feature int     // index into Names
	Name    string  // abbreviation
	Percent float64 // % contribution to retained variance
}

// Importances ranks all raw features by their contribution to the retained
// components, using the Varimax rotation to concentrate loadings. The
// loadings are eigenvalue-weighted (eigenvector * sqrt(variance)), the
// factor-analysis convention, so that high-variance components dominate the
// attribution the way they dominate the data.
func (p *Pipeline) Importances() []Importance {
	loadings := p.PCA.Components.Clone()
	for c := 0; c < loadings.Cols; c++ {
		ev := p.PCA.Explained[c]
		if ev < 0 {
			ev = 0
		}
		w := math.Sqrt(ev)
		for r := 0; r < loadings.Rows; r++ {
			loadings.Set(r, c, loadings.At(r, c)*w)
		}
	}
	rotated := mathx.Varimax(loadings, 200, 1e-10)
	contrib := make([]float64, NumRaw)
	var total float64
	for r := 0; r < NumRaw; r++ {
		for c := 0; c < rotated.Cols; c++ {
			q := rotated.At(r, c) * rotated.At(r, c)
			contrib[r] += q
			total += q
		}
	}
	out := make([]Importance, NumRaw)
	for i := range out {
		pct := 0.0
		if total > 0 {
			pct = contrib[i] / total * 100
		}
		out[i] = Importance{Feature: i, Name: Names[i], Percent: pct}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Percent > out[b].Percent })
	return out
}
