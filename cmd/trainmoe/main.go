// Command trainmoe trains the mixture-of-experts model on the paper's 16
// training programs and inspects it: per-program expert labels, the PCA
// variance spectrum, Varimax feature importance and the confidence radius.
// With -predict it also predicts one benchmark's footprint. It writes no
// file; moespark.SaveModel and LoadModel persist a model.
//
// Usage:
//
//	trainmoe            # train and inspect
//	trainmoe -seed 7    # different profiling noise
//	trainmoe -predict SP.Kmeans -input 280
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"moespark/internal/moe"
	"moespark/internal/workload"
)

func main() {
	var (
		seed    = flag.Int64("seed", 1, "random seed")
		predict = flag.String("predict", "", "benchmark to predict (e.g. SP.Kmeans)")
		input   = flag.Float64("input", 280, "input size in GB for -predict")
	)
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	model, err := moe.TrainDefault(rng)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trainmoe:", err)
		os.Exit(1)
	}

	fmt.Println("== training programs and their expert labels ==")
	for _, p := range model.Programs() {
		fmt.Printf("%-20s %-24s offline fit: %s (R2=%.4f)\n",
			p.Name, p.Family.String(), p.Fit.Func.String(), p.Fit.R2)
	}

	pipe := model.Pipeline()
	fmt.Printf("\n== PCA: %d components kept ==\n", pipe.Components())
	for i, r := range pipe.ExplainedRatio() {
		if i >= 5 {
			break
		}
		fmt.Printf("PC%d: %5.1f%% of variance\n", i+1, r*100)
	}

	fmt.Println("\n== top raw features (Varimax importance) ==")
	for i, imp := range pipe.Importances() {
		if i >= 6 {
			break
		}
		fmt.Printf("%-8s %5.1f%%\n", imp.Name, imp.Percent)
	}

	fmt.Printf("\nconfidence radius: %.3f\n", model.ConfidenceRadius())

	if *predict != "" {
		b, err := workload.Find(*predict)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trainmoe:", err)
			os.Exit(1)
		}
		pred, err := model.Predict(b.Counters(rng), b.ProfilePoint(1, rng), b.ProfilePoint(4, rng))
		if err != nil {
			fmt.Fprintln(os.Stderr, "trainmoe:", err)
			os.Exit(1)
		}
		got, err := pred.Func.Eval(*input)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trainmoe:", err)
			os.Exit(1)
		}
		truth := b.Footprint(*input)
		fmt.Printf("\n== prediction for %s at %.0fGB ==\n", b.FullName(), *input)
		fmt.Printf("selected expert: %s (distance %.3f, confident=%v)\n",
			pred.Family.String(), pred.Distance, pred.Confident)
		fmt.Printf("calibrated:      %s\n", pred.Func.String())
		fmt.Printf("footprint:       predicted %.1f GB, ground truth %.1f GB (%.1f%% error)\n",
			got, truth, (got-truth)/truth*100)
	}
}
