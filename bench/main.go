// Command bench is the repository's benchmark: five simulator workloads,
// each measured end to end (host throughput, set-up time, memory, and the
// paper's STP and ANTT with sojourn percentiles) and, in one extra traced
// repetition, layer by layer. See README.md.
//
// Usage, from this directory:
//
//	go run . [-workload W] [-seed S] [-seconds N] [-trace 0|1] [-json out.json]
//
// Without -workload every workload runs, each in its own child process so
// peak memory is per workload. The last line a workload run prints is a JSON
// object with keys correct, attempted, failed and metrics. The exit status is
// non-zero when a correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run; empty runs all of them, each in its own process")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 20, "time budget for the untraced repetitions; at least two of every input stream always run")
	trace := flag.Int("trace", 1, "1 adds a traced repetition and puts the per-layer metrics on the result line; 0 puts the end-to-end metrics there")
	jsonPath := flag.String("json", "", "also write the full report, with every sample, to this file")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 1 {
		flag.Usage()
		return 2
	}
	if *name == "" {
		return runAll(*seed, *seconds, *trace, *jsonPath)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	r, err := measure(w, *seed, *seconds, *trace == 1, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printText(os.Stdout, w, r)
	code := 0
	if !r.correct() {
		code = 1
	}
	if *jsonPath != "" {
		if err := writeReports(*jsonPath, reportFile{Workloads: []*report{r}}); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
		}
	}
	line, err := r.resultLine(*trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return code
}

// runAll runs every workload in a child process of this binary, passing the
// flags through, and merges their -json reports into one file.
func runAll(seed int64, seconds, trace int, jsonPath string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	var merged reportFile
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace)}
		part := ""
		if jsonPath != "" {
			part = jsonPath + "." + w.name
			args = append(args, "-json", part)
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
		if part == "" {
			continue
		}
		f, err := readReports(part)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
			continue
		}
		merged.Workloads = append(merged.Workloads, f.Workloads...)
		_ = os.Remove(part) // a leftover partial report is harmless
	}
	if jsonPath != "" {
		if err := writeReports(jsonPath, merged); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
		}
	}
	return code
}

func writeReports(path string, f reportFile) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding report: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
