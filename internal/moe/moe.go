// Package moe implements the paper's primary contribution: a
// mixture-of-experts memory-footprint predictor for Spark applications.
//
// Offline (Train): every training program is profiled across input sizes,
// the best-fitting memory-function family (the "expert") becomes its label,
// and a KNN expert selector is built over the PCA-reduced runtime features.
//
// Online (SelectFamily / Predict): an unseen application is profiled on a
// small input to collect features, the selector picks the expert of the
// nearest training program, and the expert's two coefficients are
// instantiated from two calibration runs (5 % and 10 % of the input). The
// nearest-neighbour distance doubles as a confidence estimate: a target far
// from every training program triggers the caller's conservative fallback.
package moe

import (
	"errors"
	"fmt"
	"math"

	"moespark/internal/classify"
	"moespark/internal/features"
	"moespark/internal/mathx"
	"moespark/internal/memfunc"
)

// TrainingProgram is one offline training example: the program's runtime
// feature vector (collected on a ~100MB profiling run) and its memory curve
// sweep (footprint measurements across input sizes).
type TrainingProgram struct {
	Name     string
	Features features.Vector
	Curve    []memfunc.Point
}

// Config controls training. The zero value reproduces the paper's setup:
// K=1 nearest neighbour, top-5 PCs at 95 % variance.
type Config struct {
	// K is the KNN neighbourhood size (default 1).
	K int
	// Pipeline configures feature scaling and PCA.
	Pipeline features.PipelineConfig
	// ConfidenceFactor scales the training-set nearest-neighbour radius
	// into the confidence threshold (default 1.2).
	ConfidenceFactor float64
}

func (c Config) withDefaults() Config {
	if c.K <= 0 {
		c.K = 1
	}
	if !(c.ConfidenceFactor > 0) { // NaN gets the default too
		c.ConfidenceFactor = 1.2
	}
	return c
}

// ProgramLabel records how a training program was labelled during training.
type ProgramLabel struct {
	Name   string
	Family memfunc.Family
	// Fit is the offline least-squares fit on the full sweep (kept for
	// inspection; runtime predictions use fresh two-point calibration).
	Fit memfunc.Fit
	// PCs is the program's position in the reduced feature space.
	PCs []float64
	// Residual is the PCA reconstruction error of the program's features.
	Residual float64
}

// Model is a trained mixture-of-experts predictor.
type Model struct {
	cfg       Config
	pipeline  *features.Pipeline
	selector  *classify.KNN
	programs  []ProgramLabel
	threshold float64 // confidence radius in PC space
}

// Train builds the mixture-of-experts model from the training programs.
func Train(programs []TrainingProgram, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if len(programs) < 2 {
		return nil, errors.New("moe: need at least 2 training programs")
	}
	raw := make([]features.Vector, len(programs))
	for i, p := range programs {
		raw[i] = p.Features
	}
	pipeline, err := features.FitPipeline(raw, cfg.Pipeline)
	if err != nil {
		return nil, fmt.Errorf("moe: fitting feature pipeline: %w", err)
	}
	labels := make([]ProgramLabel, len(programs))
	samples := make([]classify.Sample, len(programs))
	for i, p := range programs {
		fit, err := memfunc.BestFit(p.Curve)
		if err != nil {
			return nil, fmt.Errorf("moe: labelling %q: %w", p.Name, err)
		}
		pcs := make([]float64, pipeline.Components())
		res, err := pipeline.Project(p.Features, pcs)
		if err != nil {
			return nil, fmt.Errorf("moe: projecting %q: %w", p.Name, err)
		}
		labels[i] = ProgramLabel{Name: p.Name, Family: fit.Func.Family, Fit: fit, PCs: pcs, Residual: res}
		samples[i] = classify.Sample{X: pcs, Label: int(fit.Func.Family)}
	}
	selector := classify.NewKNN(cfg.K)
	if err := selector.Fit(samples); err != nil {
		return nil, fmt.Errorf("moe: fitting expert selector: %w", err)
	}
	m := &Model{cfg: cfg, pipeline: pipeline, selector: selector, programs: labels}
	m.threshold = m.trainingRadius() * cfg.ConfidenceFactor
	return m, nil
}

// trainingRadius is the largest nearest-neighbour distance inside the
// training set, measured in the augmented (PCs, residual) space; targets
// beyond ConfidenceFactor times this radius are flagged as low-confidence.
// The residual coordinate catches programs that project near a cluster but
// sit far off the training manifold.
func (m *Model) trainingRadius() float64 {
	var radius float64
	for i, a := range m.programs {
		nearest := -1.0
		for j, b := range m.programs {
			if i == j {
				continue
			}
			d := augmentedDistance(a.PCs, a.Residual, b.PCs, b.Residual)
			if nearest < 0 || d < nearest {
				nearest = d
			}
		}
		if nearest > radius {
			radius = nearest
		}
	}
	return radius
}

// augmentedDistance is the Euclidean distance in (PC-space, residual) space.
func augmentedDistance(pcsA []float64, resA float64, pcsB []float64, resB float64) float64 {
	d := euclid(pcsA, pcsB)
	dr := resA - resB
	return mathSqrt(d*d + dr*dr)
}

func mathSqrt(x float64) float64 { return math.Sqrt(x) }

func euclid(a, b []float64) float64 { return mathx.Euclidean(a, b) }

// Selection is the outcome of expert selection for one application.
type Selection struct {
	// Family is the chosen expert family.
	Family memfunc.Family
	// Distance is the Euclidean distance to the nearest training program in
	// PC space (the paper's confidence signal).
	Distance float64
	// Confident reports whether Distance falls inside the model's
	// confidence radius.
	Confident bool
	// PCs is the application's position in the reduced feature space.
	PCs []float64
}

// SelectFamily projects the application's raw runtime features and picks the
// expert of the nearest training program. The confidence distance is
// measured in the augmented (PCs, residual) space so that targets far off
// the training manifold are flagged even when their projection lands near a
// cluster.
func (m *Model) SelectFamily(raw features.Vector) (Selection, error) {
	pcs, res, err := m.project(raw)
	if err != nil {
		return Selection{}, err
	}
	fam, err := m.gate(pcs, nil)
	if err != nil {
		return Selection{}, err
	}
	return m.selection(fam, pcs, res), nil
}

// project scales and projects the raw features once, for both the gate and
// the confidence scan. The PCs go into a fresh slice because they outlive
// the call: Selection.PCs is kept for feedback and gate teaching.
func (m *Model) project(raw features.Vector) (pcs []float64, res float64, err error) {
	pcs = make([]float64, m.pipeline.Components())
	res, err = m.pipeline.Project(raw, pcs)
	if err != nil {
		return nil, 0, fmt.Errorf("moe: projecting target: %w", err)
	}
	return pcs, res, nil
}

// gate asks the KNN expert selector for the family at pcs. With a non-nil
// bias every training neighbour's distance is scaled by bias(label) before
// the vote, so an expert whose recent predictions have been poor (bias > 1)
// must be proportionally closer in feature space to be chosen.
func (m *Model) gate(pcs []float64, bias func(label int) float64) (memfunc.Family, error) {
	var (
		label int
		err   error
	)
	if bias == nil {
		label, _, err = m.selector.PredictWithDistance(pcs)
	} else {
		label, _, err = m.selector.PredictBiased(pcs, bias)
	}
	if err != nil {
		return 0, fmt.Errorf("moe: selecting expert: %w", err)
	}
	fam := memfunc.Family(label)
	if !fam.Valid() {
		return 0, fmt.Errorf("moe: selector produced invalid family %d", label)
	}
	return fam, nil
}

// selection scans the training programs for the confidence distance. It
// depends on the projection alone, never on which expert the gate chose or
// how it was biased: it measures how far the target sits from the training
// manifold.
func (m *Model) selection(fam memfunc.Family, pcs []float64, res float64) Selection {
	dist := -1.0
	for _, p := range m.programs {
		if d := augmentedDistance(pcs, res, p.PCs, p.Residual); dist < 0 || d < dist {
			dist = d
		}
	}
	return Selection{
		Family:    fam,
		Distance:  dist,
		Confident: dist <= m.threshold,
		PCs:       pcs,
	}
}

// Prediction is a fully instantiated memory function for one application.
type Prediction struct {
	Selection
	// Func is the calibrated memory function (including any online
	// recalibration an adaptive predictor applied).
	Func memfunc.Func
	// Uncorrected is the pure two-point calibration before online
	// recalibration; equal to Func on the static path.
	Uncorrected memfunc.Func
	// FellBack reports that calibration switched family because the
	// profiling points were infeasible for the selected expert.
	FellBack bool
	// Recalibrated reports that observed footprints adjusted the
	// coefficients (adaptive predictors only).
	Recalibrated bool
}

// Predict selects the expert for the application's features and calibrates
// it with the two profiling observations (the paper's 5 %/10 % runs).
func (m *Model) Predict(raw features.Vector, p1, p2 memfunc.Point) (Prediction, error) {
	sel, err := m.SelectFamily(raw)
	if err != nil {
		return Prediction{}, err
	}
	fn, err := memfunc.CalibrateWithFallback(sel.Family, p1, p2)
	if err != nil {
		return Prediction{}, fmt.Errorf("moe: calibrating %v: %w", sel.Family, err)
	}
	return Prediction{
		Selection:   sel,
		Func:        fn,
		Uncorrected: fn,
		FellBack:    fn.Family != sel.Family,
	}, nil
}

// AddProgram inserts one more labelled training program at runtime without
// refitting the pipeline or the selector — the extensibility property the
// paper highlights (new experts/programs can be added as they appear).
func (m *Model) AddProgram(p TrainingProgram) error {
	fit, err := memfunc.BestFit(p.Curve)
	if err != nil {
		return fmt.Errorf("moe: labelling %q: %w", p.Name, err)
	}
	pcs := make([]float64, m.pipeline.Components())
	res, err := m.pipeline.Project(p.Features, pcs)
	if err != nil {
		return fmt.Errorf("moe: projecting %q: %w", p.Name, err)
	}
	if err := m.selector.Add(classify.Sample{X: pcs, Label: int(fit.Func.Family)}); err != nil {
		return fmt.Errorf("moe: extending selector: %w", err)
	}
	m.programs = append(m.programs, ProgramLabel{Name: p.Name, Family: fit.Func.Family, Fit: fit, PCs: pcs, Residual: res})
	return nil
}

// Clone returns a model that shares the immutable feature pipeline but owns
// private copies of the expert selector and program labels, so runtime
// extensions — AddProgram, an adaptive gate's self-training via TeachGate —
// never leak into the original. Adaptive predictors clone their model at
// construction; the trained original stays safe to share across runs.
func (m *Model) Clone() *Model {
	cp := *m
	cp.selector = m.selector.Clone()
	cp.programs = append([]ProgramLabel(nil), m.programs...)
	return &cp
}

// TeachGate adds one labelled sample to the expert selector at the given
// position in the reduced feature space: the gate learns that programs
// observed there belong to the family, without touching the pipeline,
// program labels or confidence radius. It is the gate's online-update hook —
// an adaptive predictor calls it when realised footprints prove a region of
// feature space is routed to the wrong expert.
func (m *Model) TeachGate(pcs []float64, fam memfunc.Family) error {
	if !fam.Valid() {
		return fmt.Errorf("moe: cannot teach invalid family %d", int(fam))
	}
	x := append([]float64(nil), pcs...)
	if err := m.selector.Add(classify.Sample{X: x, Label: int(fam)}); err != nil {
		return fmt.Errorf("moe: teaching gate: %w", err)
	}
	return nil
}

// Programs returns the labelled training programs (copy).
func (m *Model) Programs() []ProgramLabel {
	out := make([]ProgramLabel, len(m.programs))
	copy(out, m.programs)
	return out
}

// Pipeline exposes the trained feature pipeline (for analysis experiments).
func (m *Model) Pipeline() *features.Pipeline { return m.pipeline }

// ConfidenceRadius returns the distance threshold used for Confident.
func (m *Model) ConfidenceRadius() float64 { return m.threshold }
