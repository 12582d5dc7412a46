// Command cloudrepl-bench regenerates every table and figure of the
// paper's evaluation on the simulated cloud, the ablations beside them and
// the kernel and planner speed benches. Each of these is one row of the
// section registry, experiment.Sections: a row's names are what -fig and
// -ablation accept (the flag help lists them), -all runs every row in
// registry order, and -determinism runs every row's determinism arm.
//
//	cloudrepl-bench -fig 2,5          # 50/50 throughput + delay panels
//	cloudrepl-bench -fig 3,6 -short   # 80/20 panels with the quick protocol
//	cloudrepl-bench -fig 4 -csv out/  # clock synchronization (and T-NTP), per-second CSV
//	cloudrepl-bench -rtt              # half-RTT table (T-RTT)
//	cloudrepl-bench -ablation sync,lb,var
//	cloudrepl-bench -determinism -short  # every determinism arm twice, byte-compared
//	cloudrepl-bench -trace out.json      # fully-traced pipeline run (cloudrepl-trace summarizes)
//	cloudrepl-bench -all -csv out/       # everything, with CSVs for plotting
//	cloudrepl-bench -all -json out/      # machine-readable BENCH_*.json files
//
// Figures 2/5 share one sweep (each run yields throughput and delay), as
// do figures 3/6. Full-protocol sweeps use the paper's 10/20/5-minute runs
// on virtual time; -short shrinks them to 2/5/1 minutes.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"

	"cloudrepl/internal/experiment"
	"cloudrepl/internal/obs"
)

// gcPercent is the bench process's GC target. Simulation runs allocate in
// bursts and retain little, so a larger heap-growth target trades memory
// for wall-clock without touching virtual-time results.
const gcPercent = 300

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command; it returns the exit status, 2 for a usage
// error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cloudrepl-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	figs := fs.String("fig", "", "comma-separated figures to regenerate ("+strings.Join(experiment.FlagNames("fig"), ",")+")")
	rtt := fs.Bool("rtt", false, "measure the half-RTT table (T-RTT)")
	ablations := fs.String("ablation", "", "comma-separated ablations ("+strings.Join(experiment.FlagNames("ablation"), ",")+")")
	determinism := fs.Bool("determinism", false, "run the determinism sanitizer: every registry arm twice with one seed, failing on any byte difference in the result JSON (with -short: quick protocol, A-PIPELINE on its corner grid)")
	determinismInject := fs.Bool("determinism-inject", false, "deliberately salt the determinism check with global math/rand entropy; the check must then fail (self-test of the sanitizer)")
	all := fs.Bool("all", false, "regenerate every figure, table and ablation")
	short := fs.Bool("short", false, "use the 2/5/1-minute quick protocol instead of 10/20/5")
	seed := fs.Int64("seed", 1, "base random seed")
	par := fs.Int("par", 0, "parallel runs (0 = GOMAXPROCS)")
	tracePath := fs.String("trace", "", "run one fully-traced pipeline point and write its Chrome trace-event JSON here (view in chrome://tracing or summarize with cloudrepl-trace)")
	csvDir := fs.String("csv", "", "directory to write per-figure CSV files into")
	jsonDir := fs.String("json", "", "directory to write machine-readable BENCH_*.json files into")
	benchKernel := fs.Bool("bench-kernel", false, "measure raw sim-kernel speed (events/sec, ns/event, allocs/event) and emit BENCH_kernel.json; also runs as part of -all")
	kernelBaseline := fs.String("kernel-baseline", "", "checked-in kernel baseline JSON to gate against: fail when micro ns/event regresses >20% or cell allocs/event >2% (update with: cp <jsondir>/BENCH_kernel.json bench/kernel_baseline.json)")
	benchPlan := fs.Bool("bench-plan", false, "measure executor speed by query shape (point read, index scan, hash join, grouped aggregate) and emit BENCH_planner.json; also runs as part of -all")
	planBaseline := fs.String("plan-baseline", "", "checked-in planner baseline JSON to gate against: fail when any shape's rate regresses >20% (update with: cp <jsondir>/BENCH_planner.json bench/planner_baseline.json)")
	quiet := fs.Bool("q", false, "suppress per-run progress lines")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	debug.SetGCPercent(gcPercent)

	sel := experiment.Selection{}
	for _, f := range []struct{ flag, list string }{{"fig", *figs}, {"ablation", *ablations}} {
		if err := sel.Add(f.flag, f.list); err != nil {
			fmt.Fprintln(stderr, "cloudrepl-bench:", err)
			return 2
		}
	}
	for _, f := range []struct {
		flag string
		on   bool
	}{{"rtt", *rtt}, {"bench-kernel", *benchKernel}, {"bench-plan", *benchPlan}} {
		if f.on {
			sel.AddFlag(f.flag)
		}
	}
	if *all {
		sel.AddAll()
	}
	opts := experiment.SweepOpts{Short: *short, Parallelism: *par, Seed: *seed}
	if !*quiet {
		opts.Progress = func(s string) { fmt.Fprintln(stderr, s) }
	}

	switch {
	case *determinism || *determinismInject:
		experiment.InjectNondeterminism = *determinismInject
		return exitStatus(stderr, checkDeterminism(stdout, opts))
	case len(sel) == 0 && *tracePath == "":
		fs.Usage()
		return 2
	}

	//cloudrepl:allow-simtime the CLI reports real elapsed wall time, not simulated time
	start := time.Now()
	var ran time.Duration // wall time of the sections run so far
	baselines := map[string]string{"kernel": *kernelBaseline, "planner": *planBaseline}
	for _, s := range experiment.Sections() {
		if !sel.Selects(s) {
			continue
		}
		banner(stdout, s.Banner)
		//cloudrepl:allow-simtime the kernel bench records the wall time of the sections run before it
		sectionStart := time.Now()
		out, err := s.Run(opts, ran)
		//cloudrepl:allow-simtime the kernel bench records the wall time of the sections run before it
		ran += time.Since(sectionStart)
		if err != nil {
			return exitStatus(stderr, err)
		}
		for i, n := range s.Names {
			if sel[n] {
				fmt.Fprintln(stdout, out.Text[i])
			}
		}
		if out.CSV != "" && *csvDir != "" {
			if err := write(stderr, filepath.Join(*csvDir, s.File+".csv"), []byte(out.CSV)); err != nil {
				return exitStatus(stderr, err)
			}
		}
		if *jsonDir != "" {
			data, err := json.MarshalIndent(out.JSON, "", "  ")
			if err == nil {
				err = write(stderr, filepath.Join(*jsonDir, "BENCH_"+s.File+".json"), append(data, '\n'))
			}
			if err != nil {
				return exitStatus(stderr, err)
			}
		}
		if path := baselines[s.File]; path != "" && out.Gate != nil {
			if err := out.Gate(path); err != nil {
				return exitStatus(stderr, err)
			}
			fmt.Fprintf(stdout, "%s baseline gate passed (%s)\n", s.File, path)
		}
	}

	if *tracePath != "" {
		banner(stdout, "trace: fully-instrumented pipeline run (quick protocol)")
		r, err := experiment.TraceRun(opts)
		if err == nil {
			err = write(stderr, *tracePath, r.TraceJSON)
		}
		if err != nil {
			return exitStatus(stderr, err)
		}
		spans, err := obs.ParseTrace(r.TraceJSON)
		if err != nil {
			return exitStatus(stderr, err)
		}
		fmt.Fprintln(stdout, obs.Summarize(spans, 10))
	}
	//cloudrepl:allow-simtime the CLI reports real elapsed wall time, not simulated time
	fmt.Fprintf(stderr, "total wall time: %v\n", time.Since(start).Round(time.Second))
	return 0
}

// exitStatus reports err and returns the command's exit status for it.
func exitStatus(stderr io.Writer, err error) int {
	if err == nil {
		return 0
	}
	fmt.Fprintln(stderr, "cloudrepl-bench:", err)
	return 1
}

// checkDeterminism runs every determinism arm of the registry in order.
func checkDeterminism(stdout io.Writer, opts experiment.SweepOpts) error {
	for _, s := range experiment.Sections() {
		if a := s.Determinism; a != nil {
			banner(stdout, "determinism sanitizer: "+a.Banner)
			if err := a.Check(opts); err != nil {
				return err
			}
		}
	}
	fmt.Fprintln(stdout, "determinism check passed: both runs produced byte-identical JSON")
	return nil
}

// write puts data into path, creating its directory.
func write(stderr io.Writer, path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s\n", path)
	return nil
}

func banner(w io.Writer, s string) {
	fmt.Fprintln(w, "==============================================================================")
	fmt.Fprintln(w, s)
	fmt.Fprintln(w, "==============================================================================")
}
