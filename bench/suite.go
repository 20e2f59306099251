package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

type suiteOptions struct {
	seed    uint64
	seconds int
	repeats int
	outDir  string // spans and results.json go here
}

// metricResult is one end-to-end metric on one workload over the
// suite's untraced repeats.
type metricResult struct {
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples"`
	summary
}

// workloadResult is everything the suite learned about one workload.
type workloadResult struct {
	Name      string                  `json:"name"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Failures  []string                `json:"failures,omitempty"`
	Digest    string                  `json:"digest"`
	EndToEnd  map[string]metricResult `json:"end_to_end"`
	// Raw holds, per untraced repeat, the host times as measured and the
	// probe's slowdown they were divided by (the rawMetrics), so the
	// reference-second correction can be audited or undone.
	Raw map[string][]float64 `json:"raw"`
	// PerLayer holds the traced run's metrics, plus the derived
	// bench.trace_overhead_frac.
	PerLayer map[string]float64 `json:"per_layer"`
}

// results is the file the suite writes and -compare reads.
type results struct {
	Env       environment       `json:"env"`
	Workloads []*workloadResult `json:"workloads"`
}

// rawMetrics are recorded per untraced repeat beside the end-to-end
// metrics: wall_s = bench.raw_wall_s / bench.host_slowdown, and setup_s
// likewise.
var rawMetrics = []string{"bench.raw_wall_s", "bench.raw_setup_s", "bench.host_slowdown"}

// runSuite runs every workload o.repeats times untraced and once
// traced, each run in a fresh child process so that peak RSS and GC
// state are the run's own. Repeats are interleaved round-robin
// across workloads (A B C ... A B C ...), so slow drift of the host
// lands on every workload alike rather than on whichever ran last. It
// returns the number of failed operations.
func runSuite(o suiteOptions) (failed int, err error) {
	var wrs []*workloadResult
	for i := range workloads {
		wrs = append(wrs, &workloadResult{
			Name: workloads[i].name, EndToEnd: map[string]metricResult{}, Raw: map[string][]float64{}, PerLayer: map[string]float64{},
		})
	}
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return 0, err
	}
	res := &results{Env: stampEnvironment(o), Workloads: wrs}
	fmt.Printf("commit %s dirty=%v %s NumCPU=%d GOMAXPROCS=%d cpu=%q seed=%d seconds=%d repeats=%d\n",
		res.Env.Commit, res.Env.Dirty, res.Env.GoVersion, res.Env.NumCPU, res.Env.GOMAXPROCS,
		res.Env.CPUModel, o.seed, o.seconds, o.repeats)

	for pass := 0; pass <= o.repeats; pass++ {
		traced := pass == o.repeats // the traced pass comes last
		for _, wr := range wrs {
			label := fmt.Sprintf("%s#%d", wr.Name, pass)
			if traced {
				label = wr.Name + "#traced"
			}
			res.Env.RunOrder = append(res.Env.RunOrder, label)
			rec, err := runChild(exe, wr.Name, o, traced)
			wr.Attempted++
			if err != nil {
				wr.fail(label, err.Error())
				continue
			}
			for _, f := range rec.Failures {
				wr.fail(label, f)
			}
			// Every run of one workload and seed simulates the same
			// thing: repeats and the traced run must agree exactly.
			if wr.Digest == "" {
				wr.Digest = rec.Digest
			} else if rec.Digest != wr.Digest {
				wr.fail(label, fmt.Sprintf("simulated outcome differs from the first run:\n first %s\n this  %s", wr.Digest, rec.Digest))
			}
			if traced {
				for _, d := range perLayer {
					wr.PerLayer[d.name] = rec.Metrics[d.name]
				}
				if base := wr.EndToEnd["wall_s"].Median; base > 0 {
					wr.PerLayer["bench.trace_overhead_frac"] = rec.Metrics["wall_s"]/base - 1
				}
				continue
			}
			for _, d := range endToEnd {
				mr := wr.EndToEnd[d.name]
				mr.Unit = d.unit
				mr.Samples = append(mr.Samples, rec.Metrics[d.name])
				mr.summary = summarize(mr.Samples)
				wr.EndToEnd[d.name] = mr
			}
			for _, name := range rawMetrics {
				wr.Raw[name] = append(wr.Raw[name], rec.Metrics[name])
			}
			fmt.Printf("  %-16s wall_s %.3f  setup_s %.3f  (as measured %.3f and %.3f, host_slowdown %.3f)\n", label,
				rec.Metrics["wall_s"], rec.Metrics["setup_s"],
				rec.Metrics["bench.raw_wall_s"], rec.Metrics["bench.raw_setup_s"], rec.Metrics["bench.host_slowdown"])
		}
	}
	crossCheck(wrs)

	for _, wr := range wrs {
		printWorkload(os.Stdout, wr)
		failed += wr.Failed
	}
	fmt.Println("model accuracy: unvalidated against hardware (the repository holds no hardware reference); sim_* values are exact for a fixed seed")
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return failed, err
	}
	resultPath := filepath.Join(o.outDir, "results.json")
	if err := os.WriteFile(resultPath, data, 0o644); err != nil {
		return failed, err
	}
	fmt.Printf("results written to %s\n", resultPath)
	return failed, nil
}

func (wr *workloadResult) fail(label, msg string) {
	wr.Failed++
	wr.Failures = append(wr.Failures, label+": "+msg)
}

// crossCheck holds ur-par to ur-serial: same inputs through a different
// executor must simulate exactly the same thing.
func crossCheck(wrs []*workloadResult) {
	var serial, par *workloadResult
	for _, wr := range wrs {
		switch wr.Name {
		case "ur-serial":
			serial = wr
		case "ur-par":
			par = wr
		}
	}
	if serial != nil && par != nil && serial.Digest != par.Digest {
		par.fail("ur-par", fmt.Sprintf("simulated outcome differs from ur-serial's:\n serial %s\n par    %s", serial.Digest, par.Digest))
	}
}

// runChild re-executes this binary for one run and reads back its full
// record. The child's stderr passes through; its result line is dropped
// in favour of the record file, which also carries failures and digest.
func runChild(exe, name string, o suiteOptions, traced bool) (*record, error) {
	recPath := filepath.Join(o.outDir, "record.tmp.json")
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe,
		"-workload", name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", trace, "-out", o.outDir, "-record", recPath)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child run: %w", err)
	}
	data, err := os.ReadFile(recPath)
	if err != nil {
		return nil, err
	}
	if err := os.Remove(recPath); err != nil {
		return nil, err
	}
	rec := &record{}
	if err := json.Unmarshal(data, rec); err != nil {
		return nil, fmt.Errorf("child record: %w", err)
	}
	return rec, nil
}

// printWorkload prints every metric of one workload by name with its
// unit: end-to-end as median, quartiles and sample count, per-layer as
// the traced run's single value.
func printWorkload(w io.Writer, wr *workloadResult) {
	fmt.Fprintf(w, "\n== %s: %d attempted, %d failed\n", wr.Name, wr.Attempted, wr.Failed)
	for _, f := range wr.Failures {
		fmt.Fprintf(w, "   FAILED %s\n", f)
	}
	for _, d := range endToEnd {
		mr := wr.EndToEnd[d.name]
		fmt.Fprintf(w, "   %-28s %14.6g %-9s q1 %-12.6g q3 %-12.6g n=%d spread %.1f%%\n",
			d.name, mr.Median, d.unit, mr.Q1, mr.Q3, mr.N, 100*mr.spread())
	}
	for _, name := range rawMetrics {
		d, _ := defByName(name)
		fmt.Fprintf(w, "   %-28s %14.6g %-9s as measured, median of n=%d\n", name, median(wr.Raw[name]), d.unit, len(wr.Raw[name]))
	}
	for _, name := range sortedKeys(wr.PerLayer) {
		unit := "fraction"
		if d, ok := defByName(name); ok {
			unit = d.unit
		}
		fmt.Fprintf(w, "   %-36s %14.6g %s\n", name, wr.PerLayer[name], unit)
	}
}
