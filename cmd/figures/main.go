// Command figures regenerates the paper's tables and figures.
//
// Usage:
//
//	figures -exp all -preset small -out results/
//	figures -exp fig5 -preset paper -out results-paper/
//
// Each experiment prints its table(s) to stdout and, with -out, writes CSV
// files suitable for plotting.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"stashsim/internal/harness"
	"stashsim/internal/sim"
	"stashsim/internal/stats"
	"stashsim/internal/viz"
)

// sketch renders a table's ASCII plot.
func sketch(t *stats.Table, p *harness.Plot) string {
	num := func(cell string) float64 {
		v, _ := strconv.ParseFloat(cell, 64) // plotted columns hold numbers
		return v
	}
	var labels, names []string
	var byRow [][]float64
	for _, row := range t.Rows {
		labels = append(labels, row[0])
		var vals []float64
		for _, y := range p.Y {
			vals = append(vals, num(row[y]))
		}
		byRow = append(byRow, vals)
	}
	for _, y := range p.Y {
		names = append(names, t.Header[y])
	}
	if p.Bars {
		return viz.Bars(p.Title, labels, names, byRow, 40)
	}
	series := make([]viz.Series, len(names))
	for i := range series {
		s := &series[i]
		s.Name = names[i]
		for r, label := range labels {
			s.X, s.Y = append(s.X, num(label)), append(s.Y, byRow[r][i])
		}
	}
	c := &viz.Chart{Title: p.Title, XLabel: p.XLabel, YLabel: p.YLabel}
	return c.Render(series...)
}

// selectExperiments parses -exp into the experiments to run, in the table's
// order; a name that is not one is an error, not a run of nothing.
func selectExperiments(list string) (sel []*harness.Experiment, err error) {
	names := strings.Split(list, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
		if names[i] != "all" && !slices.Contains(harness.Names(), names[i]) {
			return nil, fmt.Errorf("-exp: unknown experiment %q (valid: %s or all, comma separated)", names[i], strings.Join(harness.Names(), ", "))
		}
	}
	for _, e := range harness.Experiments {
		if slices.ContainsFunc(names, func(n string) bool { return n == "all" || n == e.Name || n == e.Alias }) {
			sel = append(sel, e)
		}
	}
	return sel, nil
}

// checkSnapshots holds -checkpoint and -restore against every selected
// plan before anything runs: each needs a window with the cycle inside it.
func checkSnapshots(sel []*harness.Experiment, o *harness.Options) error {
	var bad []string
	for _, e := range sel {
		switch end := e.Plan(o).End(); {
		case end == 0:
			bad = append(bad, e.Name+": not checkpointable")
		case o.Base.CheckpointAt >= end: // 0 without -checkpoint
			bad = append(bad, fmt.Sprintf("%s: cycles [0, %d)", e.Name, end))
		}
	}
	if bad == nil || o.Base.CheckpointPath == "" && o.Base.RestorePath == "" {
		return nil
	}
	return fmt.Errorf("-checkpoint/-restore do not fit every selected experiment (%s)", strings.Join(bad, "; "))
}

// cliOpts are the flags that are not part of the run description.
type cliOpts struct {
	exp, out               string
	profileExec            bool
	cpuprofile, memprofile string
}

// defineFlags declares every flag, so that TestFlagCount can count them:
// the ten shared with cmd/stashsim land in o.Base, here applied to every
// experiment network.
func defineFlags(fs *flag.FlagSet, o *harness.Options, c *cliOpts) {
	o.Base.BindFlags(fs)
	fs.StringVar(&c.exp, "exp", "all", "experiment: "+strings.Join(harness.Names(), ",")+" or all (comma separated)")
	fs.StringVar(&c.out, "out", "", "directory for CSV output")
	fs.BoolVar(&o.Quick, "quick", false, "shortened runs (smoke test)")
	fs.IntVar(&o.Workers, "workers", runtime.GOMAXPROCS(0), "sweep-level worker pool fanning out independent design points (tables are identical for any value)")
	fs.BoolVar(&c.profileExec, "profile-exec", false, "profile per-phase executor time across every experiment network; report to stderr and, with -out, exec_profile.json")
	fs.StringVar(&c.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.memprofile, "memprofile", "", "write a heap profile to this file")
}

func main() {
	o := &harness.Options{Log: log.Printf}
	var c cliOpts
	defineFlags(flag.CommandLine, o, &c)
	flag.Parse()
	sel, err := selectExperiments(c.exp)
	if err == nil {
		err = checkSnapshots(sel, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(2)
	}

	// Every experiment network gets the shared flags; a preset or fault
	// plan that cannot be built is refused here, before table1 runs.
	probe := o.Base
	probe.Mode = "baseline"
	if _, err := probe.Config(); err != nil {
		log.Fatal(err)
	}
	if c.cpuprofile != "" {
		f, err := os.Create(c.cpuprofile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if c.memprofile != "" {
		defer func() {
			f, err := os.Create(c.memprofile)
			if err != nil {
				log.Fatalf("memprofile: %v", err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatalf("memprofile: %v", err)
			}
		}()
	}
	if c.profileExec {
		// One lane: experiment networks run serially (parallelism here is
		// sweep-level), so a shared single-lane profiler aggregates phase
		// time across every design point of every selected experiment.
		o.ExecProfiler = sim.NewExecProfiler(1, 0)
	}
	if c.out != "" {
		if err := os.MkdirAll(c.out, 0o755); err != nil {
			log.Fatalf("-out: %v", err)
		}
	}
	log.SetFlags(log.Ltime)

	for _, e := range sel {
		start := time.Now() //lint:allow determinism -- wall-clock progress logging only
		outs, err := e.Run(o)
		if err != nil {
			log.Printf("%s FAILED: %v", e.Name, err)
			os.Exit(1)
		}
		for _, out := range outs {
			if c.out != "" {
				if err := os.WriteFile(filepath.Join(c.out, out.File+".csv"), []byte(out.Table.CSV()), 0o644); err != nil {
					log.Fatalf("%s: %v", e.Name, err)
				}
			}
			if out.Title != "" {
				fmt.Printf("\n== %s ==\n%s", out.Title, out.Table)
			}
			if out.Plot != nil {
				fmt.Println(sketch(out.Table, out.Plot))
			}
		}
		log.Printf("%s done in %v", e.Name, time.Since(start).Round(time.Second)) //lint:allow determinism -- as above
	}

	if o.ExecProfiler != nil {
		rep := o.ExecProfiler.Report()
		fmt.Fprint(os.Stderr, rep.Text())
		if c.out != "" {
			path := filepath.Join(c.out, "exec_profile.json")
			if err := os.WriteFile(path, rep.JSON(), 0o644); err != nil {
				log.Fatalf("exec profile: %v", err)
			}
			log.Printf("exec profile written to %s", path)
		}
	}
}
