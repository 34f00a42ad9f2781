package workload

import (
	"fmt"

	"moespark/internal/memfunc"
)

// The catalogue holds the 44 benchmarks of the paper's evaluation (Section
// 5.1): 9 from HiBench, 7 from BigDataBench (these 16 form the training
// set), 18 from Spark-Perf and 10 from Spark-Bench (unseen suites). Memory
// curves follow the family assignments visible in Figures 16-18; HB.Sort and
// HB.PageRank use the exact coefficients the paper reports in Figure 3
// (m=5.768, b=4.479 and m=16.333, b=1.79). CPU loads realise the Figure 13
// histogram (most programs between 10 % and 40 %).

func lin(m, b float64) memfunc.Func {
	return memfunc.Func{Family: memfunc.LinearPower, M: m, B: b}
}
func exp(m, b float64) memfunc.Func {
	return memfunc.Func{Family: memfunc.Exponential, M: m, B: b}
}
func nlog(m, b float64) memfunc.Func {
	return memfunc.Func{Family: memfunc.NapierianLog, M: m, B: b}
}

// catalog is the catalogue built once for the stream and mix draws, which
// read it thousands of times per benchmark run. Sharing its benchmarks is
// safe because nothing writes to a Benchmark (the drift generators skew a
// copy) and nothing keys on its pointer (the signature memo keys on its
// fields).
var catalog = Catalog()

// Catalog returns the full 44-benchmark catalogue. The result is freshly
// allocated: callers may mutate it freely.
func Catalog() []*Benchmark {
	return []*Benchmark{
		// --- HiBench (9) ---
		{Suite: HiBench, Name: "Sort", Domain: "micro", Truth: exp(5.768, 4.479), CPULoad: 0.105, ScanRate: 0.14},
		{Suite: HiBench, Name: "WordCount", Domain: "micro", Truth: exp(5.0, 3.8), CPULoad: 0.165, ScanRate: 0.13},
		{Suite: HiBench, Name: "TeraSort", Domain: "micro", Truth: exp(5.5, 4.1), CPULoad: 0.203, ScanRate: 0.11},
		{Suite: HiBench, Name: "Scan", Domain: "sql", Truth: exp(4.2, 5.0), CPULoad: 0.09, ScanRate: 0.16},
		{Suite: HiBench, Name: "Aggregation", Domain: "sql", Truth: exp(4.6, 4.4), CPULoad: 0.345, ScanRate: 0.12},
		{Suite: HiBench, Name: "Join", Domain: "sql", Truth: exp(5.9, 3.5), CPULoad: 0.247, ScanRate: 0.10},
		{Suite: HiBench, Name: "PageRank", Domain: "graph", Truth: nlog(16.333, 1.79), CPULoad: 0.285, ScanRate: 0.055},
		{Suite: HiBench, Name: "Kmeans", Domain: "ml", Truth: nlog(16.5, 1.6), CPULoad: 0.315, ScanRate: 0.06},
		{Suite: HiBench, Name: "Bayes", Domain: "ml", Truth: nlog(14.8, 1.5), CPULoad: 0.232, ScanRate: 0.065},

		// --- BigDataBench (7) ---
		{Suite: BigDataBench, Name: "Sort", Domain: "micro", Truth: lin(1.5, 0.568), CPULoad: 0.12, ScanRate: 0.13},
		{Suite: BigDataBench, Name: "Wordcount", Domain: "micro", Truth: exp(4.8, 3.6), CPULoad: 0.143, ScanRate: 0.14},
		{Suite: BigDataBench, Name: "Grep", Domain: "micro", Truth: exp(4.4, 4.8), CPULoad: 0.068, ScanRate: 0.16},
		{Suite: BigDataBench, Name: "PageRank", Domain: "graph", Truth: nlog(20.2, 1.85), CPULoad: 0.33, ScanRate: 0.05},
		{Suite: BigDataBench, Name: "Kmeans", Domain: "ml", Truth: nlog(17.6, 1.7), CPULoad: 0.27, ScanRate: 0.06},
		{Suite: BigDataBench, Name: "Con.Com", Domain: "graph", Truth: nlog(15.9, 1.55), CPULoad: 0.217, ScanRate: 0.055},
		{Suite: BigDataBench, Name: "NaivesBayes", Domain: "ml", Truth: lin(1.5, 0.4), CPULoad: 0.18, ScanRate: 0.08},

		// --- Spark-Perf (18) ---
		{Suite: SparkPerf, Name: "Kmeans", Domain: "ml", Truth: nlog(17.0, 1.65), CPULoad: 0.307, ScanRate: 0.06},
		{Suite: SparkPerf, Name: "glm-classification", Domain: "ml", Truth: lin(1.5, 0.606), CPULoad: 0.36, ScanRate: 0.07},
		{Suite: SparkPerf, Name: "glm-regression", Domain: "ml", Truth: lin(1.5, 0.546), CPULoad: 0.338, ScanRate: 0.07},
		{Suite: SparkPerf, Name: "Pca", Domain: "ml", Truth: lin(1.5, 0.532), CPULoad: 0.39, ScanRate: 0.065},
		{Suite: SparkPerf, Name: "DecisionTree", Domain: "ml", Truth: lin(1.5, 0.496), CPULoad: 0.255, ScanRate: 0.075},
		{Suite: SparkPerf, Name: "Spearman", Domain: "ml", Truth: nlog(14.5, 1.4), CPULoad: 0.195, ScanRate: 0.07},
		{Suite: SparkPerf, Name: "NaiveBayes", Domain: "ml", Truth: lin(1.5, 0.386), CPULoad: 0.173, ScanRate: 0.08},
		{Suite: SparkPerf, Name: "CoreRDD", Domain: "micro", Truth: exp(4.0, 4.0), CPULoad: 0.083, ScanRate: 0.15},
		{Suite: SparkPerf, Name: "Gmm", Domain: "ml", Truth: lin(1.5, 0.562), CPULoad: 0.367, ScanRate: 0.06},
		{Suite: SparkPerf, Name: "Pearson", Domain: "ml", Truth: nlog(13.8, 1.35), CPULoad: 0.158, ScanRate: 0.075},
		{Suite: SparkPerf, Name: "Chi-sq", Domain: "ml", Truth: exp(4.9, 3.3), CPULoad: 0.128, ScanRate: 0.10},
		{Suite: SparkPerf, Name: "Sum.Statis", Domain: "ml", Truth: exp(4.3, 3.9), CPULoad: 0.098, ScanRate: 0.12},
		{Suite: SparkPerf, Name: "B.MatrixMult", Domain: "ml", Truth: lin(1.5, 0.786), CPULoad: 0.42, ScanRate: 0.05},
		{Suite: SparkPerf, Name: "Sort", Domain: "micro", Truth: exp(5.3, 4.2), CPULoad: 0.112, ScanRate: 0.13},
		{Suite: SparkPerf, Name: "Count", Domain: "micro", Truth: exp(3.8, 5.2), CPULoad: 0.06, ScanRate: 0.17},
		{Suite: SparkPerf, Name: "Filter", Domain: "micro", Truth: exp(4.1, 4.6), CPULoad: 0.075, ScanRate: 0.16},
		{Suite: SparkPerf, Name: "Aggregate", Domain: "micro", Truth: exp(4.7, 3.7), CPULoad: 0.135, ScanRate: 0.12},
		{Suite: SparkPerf, Name: "ALS", Domain: "ml", Truth: lin(1.5, 0.537), CPULoad: 0.292, ScanRate: 0.065},

		// --- Spark-Bench (10) ---
		{Suite: SparkBench, Name: "Hive", Domain: "sql", Truth: exp(5.6, 3.4), CPULoad: 0.188, ScanRate: 0.11},
		{Suite: SparkBench, Name: "MatrixFact", Domain: "ml", Truth: lin(1.5, 0.654), CPULoad: 0.383, ScanRate: 0.055},
		{Suite: SparkBench, Name: "SVD++", Domain: "graph", Truth: lin(1.5, 0.639), CPULoad: 0.352, ScanRate: 0.05},
		{Suite: SparkBench, Name: "LogRegre", Domain: "ml", Truth: lin(1.5, 0.532), CPULoad: 0.277, ScanRate: 0.07},
		{Suite: SparkBench, Name: "RDDRelation", Domain: "sql", Truth: exp(5.1, 3.9), CPULoad: 0.15, ScanRate: 0.12},
		{Suite: SparkBench, Name: "PageRank", Domain: "graph", Truth: nlog(19.1, 1.8), CPULoad: 0.3, ScanRate: 0.05},
		{Suite: SparkBench, Name: "SVM", Domain: "ml", Truth: lin(1.5, 0.561), CPULoad: 0.323, ScanRate: 0.065},
		{Suite: SparkBench, Name: "TriangleCount", Domain: "graph", Truth: nlog(16.2, 1.6), CPULoad: 0.262, ScanRate: 0.055},
		{Suite: SparkBench, Name: "ShortestPaths", Domain: "graph", Truth: nlog(15.4, 1.5), CPULoad: 0.21, ScanRate: 0.06},
		{Suite: SparkBench, Name: "PregelOp", Domain: "graph", Truth: nlog(14.9, 1.45), CPULoad: 0.24, ScanRate: 0.06},
	}
}

// TrainingSet returns the 16 HiBench + BigDataBench benchmarks the paper
// trains its memory functions and expert selector on.
func TrainingSet() []*Benchmark {
	var out []*Benchmark
	for _, b := range Catalog() {
		if b.Suite == HiBench || b.Suite == BigDataBench {
			out = append(out, b)
		}
	}
	return out
}

// ByFullName returns the catalogue keyed by suite-qualified name.
func ByFullName() map[string]*Benchmark {
	m := make(map[string]*Benchmark, 44)
	for _, b := range Catalog() {
		m[b.FullName()] = b
	}
	return m
}

// Find returns the benchmark with the given suite-qualified name.
func Find(fullName string) (*Benchmark, error) {
	b, ok := ByFullName()[fullName]
	if !ok {
		return nil, fmt.Errorf("workload: unknown benchmark %q", fullName)
	}
	return b, nil
}

// EquivalentNames maps a benchmark to same-algorithm implementations in
// other suites. The paper excludes these from training when testing (e.g.
// when testing HB.Sort, BDB.Sort is excluded too).
func EquivalentNames(b *Benchmark) []string {
	groups := [][]string{
		{"HB.Sort", "BDB.Sort", "SP.Sort"},
		{"HB.WordCount", "BDB.Wordcount"},
		{"HB.PageRank", "BDB.PageRank", "SB.PageRank"},
		{"HB.Kmeans", "BDB.Kmeans", "SP.Kmeans"},
		{"HB.Bayes", "BDB.NaivesBayes", "SP.NaiveBayes"},
	}
	full := b.FullName()
	for _, g := range groups {
		for _, n := range g {
			if n == full {
				out := make([]string, 0, len(g)-1)
				for _, m := range g {
					if m != full {
						out = append(out, m)
					}
				}
				return out
			}
		}
	}
	return nil
}
