package experiment

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// Section is one row of the bench registry: a figure, table, ablation or
// speed bench that cloudrepl-bench selects by name, runs, prints and writes.
// The command loops over Sections and does nothing per section by hand, so
// adding an ablation is adding one row.
type Section struct {
	// Flag is the cloudrepl-bench flag that selects the row: "fig" and
	// "ablation" take a comma-separated list of Names; any other Flag is a
	// boolean flag that selects its rows.
	Flag string
	// Names are the CLI names of the row, one per rendered block (the 50/50
	// sweep answers to "2" for its throughput panels and "5" for its delay
	// panels). They are unique across the registry.
	Names  []string
	Banner string
	// File names the row's outputs: BENCH_<File>.json and, when the run
	// returns a CSV, <File>.csv.
	File string
	// Run executes the section. ran is the wall time the sections run
	// before it in the same invocation took; only the kernel bench uses it.
	Run func(opts SweepOpts, ran time.Duration) (Output, error)
	// Determinism, when set, is the row's arm of the determinism sanitizer.
	// A row with an arm and no Names belongs to no section.
	Determinism *Arm
}

// Output is what one section run produced.
type Output struct {
	// Text is the rendered block of each of the row's Names, in order.
	Text []string
	CSV  string // written to <File>.csv when non-empty
	JSON any    // written to BENCH_<File>.json
	// Gate, when set, checks the result against a checked-in baseline file.
	Gate func(baselinePath string) error
}

// Arm is one determinism-sanitizer arm: Check runs it twice with one
// SweepOpts and byte-compares the JSON encodings of the two results.
type Arm struct {
	Name   string // "A-PIPELINE"
	Banner string // what the two runs are and how they are compared
	Run    func(SweepOpts) (any, error)
}

// Check runs the arm twice through CheckDeterminism.
func (a *Arm) Check(opts SweepOpts) error {
	return CheckDeterminism(a.Name, func() (any, error) { return a.Run(opts) })
}

// Sections returns the bench registry in -all execution order; the
// determinism arms run in the same order. Each call builds fresh rows, so
// an arm's per-check state starts over.
func Sections() []Section {
	return []Section{
		{
			Flag: "fig", Names: []string{"2", "5"}, File: "fig2_fig5",
			Banner: "sweep: 50/50, data size 300 (figures 2 and 5)",
			Run: sweepRun(Fig2Sweep, "Fig. 2 — end-to-end throughput, 50/50", "T-SAT (50/50)",
				"Fig. 5 — average relative replication delay, 50/50"),
		},
		{
			Flag: "fig", Names: []string{"3", "6"}, File: "fig3_fig6",
			Banner: "sweep: 80/20, data size 600 (figures 3 and 6)",
			Run: sweepRun(Fig3Sweep, "Fig. 3 — end-to-end throughput, 80/20", "T-SAT (80/20)",
				"Fig. 6 — average relative replication delay, 80/20"),
		},
		{
			Flag: "fig", Names: []string{"4"}, File: "fig4",
			Banner: "clock synchronization (figure 4 and T-NTP)",
			Run: func(opts SweepOpts, _ time.Duration) (Output, error) {
				once, every := Fig4(opts.Seed)
				return Output{Text: []string{renderFig4(once, every)}, CSV: fig4CSV(once, every), JSON: fig4JSON(once, every)}, nil
			},
		},
		{
			Flag: "rtt", Names: []string{"rtt"}, File: "rtt",
			Banner: "half-RTT measurements (T-RTT)",
			Run: func(opts SweepOpts, _ time.Duration) (Output, error) {
				rows := TableRTT(opts.Seed)
				return Output{Text: []string{renderRTT(rows)}, JSON: rttJSON(rows)}, nil
			},
		},
		ablation("sync", "synchronization models (A-SYNC)", AblationSyncModes, renderSyncModes, syncModesJSON),
		ablation("lb", "read balancers (A-LB)", AblationBalancers, renderBalancers, balancersJSON),
		ablation("prio", "prioritized SQL applier (A-PRIO)", AblationApplierPriority, renderApplierPriority, priorityJSON),
		ablation("arch", "master-slave vs multi-master (A-ARCH)", AblationArchitectures, renderArchitectures, architecturesJSON),
		ablation("chaos", "fault injection and recovery (A-CHAOS)", AblationChaos, renderChaos, chaosJSON),
		ablation("var", "instance performance variation (A-VAR)", func(opts SweepOpts) (VariationResult, error) {
			return AblationInstanceVariation(opts, 12)
		}, renderVariation, variationJSON),
		ablation("pipeline", "replication pipeline (A-PIPELINE)", AblationPipeline, renderPipeline, pipelineJSON).
			withArm("A-PIPELINE", "A-PIPELINE twice with one seed, byte-compared JSON", pipelineArm),
		{Determinism: &Arm{"A-TRACE", "traced run twice with one seed, byte-compared trace + metrics", traceArm}},
		{Determinism: &Arm{"KERNEL-SHARDS", "sharded runner serial vs parallel, byte-compared merged JSON", kernelShardsArm()}},
		ablation("shard", "cell-sharded scale-out (A-SHARD)", AblationSharding, renderSharding, shardingJSON).
			withArm("A-SHARD", "sharded tier with a live split twice with one seed, byte-compared JSON", shardArm),
		ablation("consist", "read-consistency tiers (A-CONSIST)", AblationConsistency, renderConsistency, consistencyJSON).
			withArm("A-CONSIST", "MVCC session-consistency arm twice with one seed, byte-compared JSON", consistArm),
		ablation("plan", "cost-based planner vs naive planning (A-PLAN)", AblationPlan, renderPlan, planJSON).
			withArm("A-PLAN", "cost-based planner arm twice with one seed, byte-compared JSON incl. EXPLAIN", planArm),
		ablation("elastic", "SLO-driven autoscaling (A-ELASTIC)", AblationElastic, renderElastic, elasticJSON),
		{
			Flag: "bench-kernel", Names: []string{"kernel"}, File: "kernel",
			Banner: "kernel bench: raw scheduler speed (micro workload + one experiment cell)",
			Run: func(opts SweepOpts, ran time.Duration) (Output, error) {
				r, err := KernelBench(opts, ran)
				if err != nil {
					return Output{}, err
				}
				return Output{Text: []string{renderKernelBench(r)}, JSON: r,
					Gate: func(path string) error { return CheckKernelBaseline(path, r) }}, nil
			},
		},
		{
			Flag: "bench-plan", Names: []string{"planner"}, File: "planner",
			Banner: "planner bench: executor speed by query shape (point read, index scan, hash join, group agg) and replica apply",
			Run: func(SweepOpts, time.Duration) (Output, error) {
				r, err := PlanBench()
				if err != nil {
					return Output{}, err
				}
				return Output{Text: []string{renderPlanBench(r)}, JSON: r,
					Gate: func(path string) error { return CheckPlanBaseline(path, r) }}, nil
			},
		},
	}
}

// ablation builds the row of the ablation selected by -ablation name from
// its run, render and BENCH JSON functions.
func ablation[R any](name, title string, run func(SweepOpts) (R, error), render func(R) string, toJSON func(R) any) Section {
	return Section{
		Flag: "ablation", Names: []string{name}, File: name,
		Banner: "ablation: " + title,
		Run: func(opts SweepOpts, _ time.Duration) (Output, error) {
			r, err := run(opts)
			if err != nil {
				return Output{}, err
			}
			return Output{Text: []string{render(r)}, JSON: toJSON(r)}, nil
		},
	}
}

func (s Section) withArm(name, banner string, run func(SweepOpts) (any, error)) Section {
	s.Determinism = &Arm{name, banner, run}
	return s
}

// sweepRun runs a figure sweep. Its first block is the throughput panels
// with the T-SAT table, its second the relative-delay panels.
func sweepRun(sweep func(SweepOpts) *Sweep, tpTitle, satTitle, delayTitle string) func(SweepOpts, time.Duration) (Output, error) {
	return func(opts SweepOpts, _ time.Duration) (Output, error) {
		sw := sweep(opts)
		if err := sw.Run(); err != nil {
			return Output{}, err
		}
		return Output{
			Text: []string{sw.renderThroughput(tpTitle) + "\n" + sw.renderSaturation(satTitle), sw.renderDelay(delayTitle)},
			CSV:  sw.csv(),
			JSON: sweepJSON(sw),
		}, nil
	}
}

// FlagNames lists, sorted, the names of the rows that flag selects.
func FlagNames(flag string) []string {
	var names []string
	for _, s := range Sections() {
		if s.Flag == flag {
			names = append(names, s.Names...)
		}
	}
	slices.Sort(names)
	return names
}

// Selection is the set of section names one bench invocation asked for.
type Selection map[string]bool

// Add selects each name of list, a comma-separated -fig or -ablation
// value. A name no row under flag answers to is an error that lists the
// valid names, so a typo never runs nothing and exits 0.
func (sel Selection) Add(flag, list string) error {
	valid := FlagNames(flag)
	for _, n := range strings.Split(list, ",") {
		if n = strings.TrimSpace(n); n == "" {
			continue
		}
		if !slices.Contains(valid, n) {
			return fmt.Errorf("unknown -%s name %q (valid: %s)", flag, n, strings.Join(valid, ","))
		}
		sel[n] = true
	}
	return nil
}

// AddFlag selects every name of the rows that flag selects.
func (sel Selection) AddFlag(flag string) {
	for _, n := range FlagNames(flag) {
		sel[n] = true
	}
}

// AddAll selects every name in the registry (-all).
func (sel Selection) AddAll() {
	for _, s := range Sections() {
		for _, n := range s.Names {
			sel[n] = true
		}
	}
}

// Selects reports whether any of the row's names is selected.
func (sel Selection) Selects(s Section) bool {
	return slices.ContainsFunc(s.Names, func(n string) bool { return sel[n] })
}
