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

// tableSeries extracts numeric columns from a table as plottable series,
// using column xCol as the x axis.
func tableSeries(t *stats.Table, xCol int, yCols ...int) []viz.Series {
	var out []viz.Series
	for _, yc := range yCols {
		s := viz.Series{Name: t.Header[yc]}
		for _, row := range t.Rows {
			x, errX := strconv.ParseFloat(row[xCol], 64)
			y, errY := strconv.ParseFloat(row[yc], 64)
			if errX != nil || errY != nil {
				continue
			}
			s.X = append(s.X, x)
			s.Y = append(s.Y, y)
		}
		out = append(out, s)
	}
	return out
}

// experiments are the names -exp accepts besides "all".
var experiments = []string{"table1", "table2", "fig5", "fig6", "fig7", "fig8", "fig9", "ablations", "faults"}

// selectExperiments parses -exp into the set of experiments to run. A name
// that is not an experiment is an error, not an experiment that never runs.
func selectExperiments(list string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, e := range strings.Split(list, ",") {
		e = strings.TrimSpace(e)
		switch {
		case e == "all":
			for _, each := range experiments {
				want[each] = true
			}
		case slices.Contains(experiments, e):
			want[e] = true
		default:
			return nil, fmt.Errorf("-exp: unknown experiment %q (valid: %s or all, comma separated)", e, strings.Join(experiments, ", "))
		}
	}
	if want["fig8"] {
		want["fig7"] = true // Fig 8 is produced by the Fig 7 runs
	}
	return want, nil
}

// cliOpts are the flags that are not part of the run description.
type cliOpts struct {
	exp                    string
	profileExec            bool
	cpuprofile, memprofile string
}

// defineFlags declares every flag, so that TestFlagCount can count them:
// the ten shared with cmd/stashsim land in o.Base, here applied to every
// experiment network.
func defineFlags(fs *flag.FlagSet, o *harness.Options, c *cliOpts) {
	o.Base.BindFlags(fs)
	fs.StringVar(&c.exp, "exp", "all", "experiment: "+strings.Join(experiments, ",")+" or all (comma separated)")
	fs.StringVar(&o.OutDir, "out", "", "directory for CSV output")
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
	want, err := selectExperiments(c.exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(2)
	}

	// Every experiment network gets the shared flags (-checkpoint writes a
	// warm snapshot per design point, <file>.<experiment>.<point>, and the
	// cycle must fall inside the experiment's window); a preset or fault
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
	var prof *sim.ExecProfiler
	if c.profileExec {
		// One lane: experiment networks run serially (parallelism here is
		// sweep-level), so a shared single-lane profiler aggregates phase
		// time across every design point of every selected experiment.
		prof = sim.NewExecProfiler(1, 0)
		o.ExecProfiler = prof
	}
	log.SetFlags(log.Ltime)

	show := func(title string, t *stats.Table) {
		fmt.Printf("\n== %s ==\n%s", title, t)
	}
	run := func(name string, f func() error) {
		if !want[name] {
			return
		}
		start := time.Now() //lint:allow determinism -- wall-clock progress logging only
		if err := f(); err != nil {
			log.Printf("%s FAILED: %v", name, err)
			os.Exit(1)
		}
		//lint:allow determinism -- wall-clock progress logging only
		log.Printf("%s done in %v", name, time.Since(start).Round(time.Second))
	}

	run("table1", func() error {
		t, err := harness.Table1(o)
		if err != nil {
			return err
		}
		show("Table I: link asymmetry & buffer underutilization", t)
		return nil
	})
	run("table2", func() error {
		t, err := harness.Table2(o)
		if err != nil {
			return err
		}
		show("Table II: DesignForward application traces (synthesized)", t)
		return nil
	})
	run("fig5", func() error {
		lat, acc, err := harness.Fig5(o)
		if err != nil {
			return err
		}
		show("Figure 5a: latency vs offered load (us)", lat)
		c := &viz.Chart{Title: "Fig 5a (shape)", XLabel: "offered load", YLabel: "latency us"}
		fmt.Println(c.Render(tableSeries(lat, 0, 1, 2, 3, 4)...))
		show("Figure 5b: offered vs accepted throughput", acc)
		c = &viz.Chart{Title: "Fig 5b (shape)", XLabel: "offered load", YLabel: "accepted"}
		fmt.Println(c.Render(tableSeries(acc, 0, 1, 2, 3, 4)...))
		return nil
	})
	run("fig6", func() error {
		t, err := harness.Fig6(o)
		if err != nil {
			return err
		}
		show("Figure 6: trace runtime normalized to baseline", t)
		var labels []string
		var values [][]float64
		for _, row := range t.Rows {
			labels = append(labels, row[0])
			var vals []float64
			for i := 2; i < len(row); i++ {
				v, err := strconv.ParseFloat(row[i], 64)
				if err == nil {
					vals = append(vals, v)
				}
			}
			values = append(values, vals)
		}
		fmt.Println(viz.Bars("Fig 6 (shape)", labels, t.Header[2:], values, 40))
		return nil
	})
	run("fig7", func() error {
		r, err := harness.Fig7(o)
		if err != nil {
			return err
		}
		show("Figure 7a: victim latency over time (us)", r.Series)
		c := &viz.Chart{Title: "Fig 7a (shape)", XLabel: "time us", YLabel: "victim latency us"}
		fmt.Println(c.Render(tableSeries(r.Series, 0, 1, 2, 3)...))
		show("Figure 7b: victim latency distribution percentiles (ns)", r.InvCDF)
		show("Figure 8: hotspot switch stash utilization & aggressor load", r.Stash)
		c = &viz.Chart{Title: "Fig 8 (shape)", XLabel: "time us", YLabel: "util / load"}
		fmt.Println(c.Render(tableSeries(r.Stash, 0, 1, 2)...))
		return nil
	})
	run("ablations", func() error {
		t, err := harness.Ablations(o)
		if err != nil {
			return err
		}
		show("Ablations: design-choice sensitivity at full load (e2e stashing)", t)
		return nil
	})
	run("fig9", func() error {
		t, err := harness.Fig9(o)
		if err != nil {
			return err
		}
		show("Figure 9: victim p90 latency vs aggressor burst size", t)
		c := &viz.Chart{Title: "Fig 9 (shape)", XLabel: "burst pkts", YLabel: "victim p90 us"}
		fmt.Println(c.Render(tableSeries(t, 0, 1, 2, 3)...))
		return nil
	})
	run("faults", func() error {
		t, err := harness.Faults(o)
		if err != nil {
			return err
		}
		show("Faults: recovery latency, stash-local vs source-endpoint resend", t)
		return nil
	})

	if prof != nil {
		rep := prof.Report()
		fmt.Fprint(os.Stderr, rep.Text())
		if o.OutDir != "" {
			if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
				log.Fatalf("exec profile: %v", err)
			}
			path := filepath.Join(o.OutDir, "exec_profile.json")
			if err := os.WriteFile(path, rep.JSON(), 0o644); err != nil {
				log.Fatalf("exec profile: %v", err)
			}
			log.Printf("exec profile written to %s", path)
		}
	}
}
