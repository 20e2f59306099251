// Command bench is the repository's benchmark: seven named workloads
// driven in-process through the simulator's public functions, reporting
// end-to-end and per-layer metrics and checking the simulated outcome.
// BENCHMARK.json at the repository root names it; README.md here
// explains the workloads, the metrics and the procedure.
//
//	go run -C bench . -workload ur-serial -seed 1 -seconds 5 -trace 0   # one run, one JSON line
//	go run -C bench .                                                    # the whole suite, interleaved
//	go run -C bench . -compare a/results.json b/results.json             # verdict per workload and metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process and print one JSON result line; empty runs the whole suite")
		seed    = flag.Uint64("seed", 1, "workload seed; reaches the simulator only as generated inputs")
		seconds = flag.Int("seconds", defaultSeconds, "size of the timed region: each workload runs a fixed number of cycles per requested second")
		traced  = flag.Int("trace", 0, "1 runs the traced pass (registry, executor profiler, spans, kernels) and prints the per-layer metrics")
		outDir  = flag.String("out", "out", "directory for span files and the suite's results.json")
		repeats = flag.Int("repeats", 5, "suite: untraced repeats per workload, interleaved round-robin (at least 3)")
		record  = flag.String("record", "", "with -workload: also write the full record (every metric, failures, digest) to this file")
		compare = flag.Bool("compare", false, "compare two results files given as arguments; exit 1 on any worse metric or a higher failed share")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("-compare takes two results files")
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if worse {
			os.Exit(1)
		}
	case *name != "":
		w, err := workloadByName(*name)
		if err != nil {
			fatalf("%v", err)
		}
		if *seconds < 1 {
			fatalf("-seconds must be at least 1")
		}
		rec := runWorkload(w.sized(*seconds, false), *seed, *traced != 0, *outDir)
		if rec.Traced {
			for k, v := range kernelMetrics() {
				rec.Metrics[k] = v
			}
		}
		for _, f := range rec.Failures {
			fmt.Fprintf(os.Stderr, "FAILED %s: %s\n", rec.Workload, f)
		}
		if *record != "" {
			data, err := json.Marshal(rec)
			if err == nil {
				err = os.WriteFile(*record, data, 0o644)
			}
			if err != nil {
				fatalf("writing record: %v", err)
			}
		}
		fmt.Println(resultLine(rec))
	default:
		if *repeats < 3 {
			fatalf("-repeats must be at least 3")
		}
		failed, err := runSuite(suiteOptions{seed: *seed, seconds: *seconds, repeats: *repeats, outDir: *outDir})
		if err != nil {
			fatalf("%v", err)
		}
		if failed > 0 {
			os.Exit(1)
		}
	}
}

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 5

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// resultLine renders the one-line result the benchmark contract asks
// for: the end-to-end metrics of an untraced run, the per-layer metrics
// of a traced one. One run of one workload is one operation.
func resultLine(rec *record) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if rec.Traced {
		defs = perLayer
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(rec.Failures) == 0, Attempted: 1, Metrics: map[string]value{}}
	if !out.Correct {
		out.Failed = 1
	}
	for _, d := range defs {
		out.Metrics[d.name] = value{Value: rec.Metrics[d.name], Unit: d.unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	return string(data)
}

// sortedKeys returns a map's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
