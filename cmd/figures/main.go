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
	"strconv"
	"strings"
	"time"

	"stashsim/internal/core"
	"stashsim/internal/fault"
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

func main() {
	exp := flag.String("exp", "all", "experiment: table1,table2,fig5,fig6,fig7,fig8,fig9,ablations,faults or all (comma separated)")
	preset := flag.String("preset", "small", "network scale: tiny, small, paper")
	out := flag.String("out", "", "directory for CSV output")
	quick := flag.Bool("quick", false, "shortened runs (smoke test)")
	seed := flag.Uint64("seed", 1, "master random seed")
	var invariants int64
	flag.BoolFunc("invariants", "audit runtime conservation invariants every 64 cycles during the runs, or with -invariants=N every N", func(s string) (err error) {
		invariants, err = core.ParseAuditEvery(s)
		return err
	})
	faultPlan := flag.String("fault-plan", "", "JSON fault plan injected into every experiment network")
	dropRate := flag.Float64("link-drop-rate", 0, "per-packet drop probability injected into every experiment network")
	outages := flag.String("link-outage", "", "outage windows (link@start-end, comma separated) injected into every experiment network")
	stashFails := flag.String("stash-fail", "", "stash-bank failures (switch.port@cycle, comma separated) injected into every experiment network")
	stashParity := flag.Int("stash-parity", 0, "erasure-code stash copies into XOR parity groups of this width on every e2e experiment network (0 = off)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "sweep-level worker pool fanning out independent design points (tables are identical for any value)")
	checkpointSpec := flag.String("checkpoint", "", "write a warm snapshot of every design point as file@cycle (cycle inside each experiment's warmup window); files get .<experiment>.<point> suffixes")
	restore := flag.String("restore", "", "resume every design point from the warm snapshots a previous -checkpoint run wrote with this file prefix; tables are byte-identical to a straight-through run")
	profileExec := flag.Bool("profile-exec", false, "profile per-phase executor time across every experiment network; report to stderr and, with -out, exec_profile.json")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	if _, err := core.PresetConfig(*preset); err != nil {
		log.Fatal(err)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
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

	o := &harness.Options{
		Preset:      *preset,
		OutDir:      *out,
		Quick:       *quick,
		Seed:        *seed,
		Invariants:  invariants,
		StashParity: *stashParity,
		Workers:     *workers,
		RestorePath: *restore,
		Log: func(format string, args ...any) {
			log.Printf(format, args...)
		},
	}
	if *checkpointSpec != "" {
		i := strings.LastIndex(*checkpointSpec, "@")
		if i <= 0 {
			log.Fatalf("-checkpoint wants file@cycle, got %q", *checkpointSpec)
		}
		at, err := strconv.ParseInt((*checkpointSpec)[i+1:], 10, 64)
		if err != nil || at < 0 {
			log.Fatalf("-checkpoint wants file@cycle with a non-negative cycle, got %q", *checkpointSpec)
		}
		o.CheckpointPath = (*checkpointSpec)[:i]
		o.CheckpointAt = at
	}
	var prof *sim.ExecProfiler
	if *profileExec {
		// One lane: experiment networks run serially (parallelism here is
		// sweep-level), so a shared single-lane profiler aggregates phase
		// time across every design point of every selected experiment.
		prof = sim.NewExecProfiler(1, 0)
		o.ExecProfiler = prof
	}
	if *faultPlan != "" || *dropRate > 0 || *outages != "" || *stashFails != "" {
		plan := &fault.Plan{Seed: *seed}
		if *faultPlan != "" {
			p, err := fault.LoadPlan(*faultPlan)
			if err != nil {
				log.Fatalf("%v", err)
			}
			plan = &p
		}
		if *dropRate > 0 {
			plan.LinkDropRate = *dropRate
		}
		ows, err := fault.ParseOutages(*outages)
		if err != nil {
			log.Fatalf("%v", err)
		}
		plan.Outages = append(plan.Outages, ows...)
		sfs, err := fault.ParseStashFails(*stashFails)
		if err != nil {
			log.Fatalf("%v", err)
		}
		plan.StashFailures = append(plan.StashFailures, sfs...)
		o.FaultPlan = plan
	}
	log.SetFlags(log.Ltime)

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	show := func(title string, t *stats.Table) {
		fmt.Printf("\n== %s ==\n%s", title, t)
	}
	run := func(name string, f func() error) {
		if !all && !want[name] {
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
	if want["fig8"] && !want["fig7"] && !all {
		want["fig7"] = true // Fig 8 is produced by the Fig 7 runs
	}
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
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				log.Fatalf("exec profile: %v", err)
			}
			path := filepath.Join(*out, "exec_profile.json")
			if err := os.WriteFile(path, rep.JSON(), 0o644); err != nil {
				log.Fatalf("exec profile: %v", err)
			}
			log.Printf("exec profile written to %s", path)
		}
	}
}
