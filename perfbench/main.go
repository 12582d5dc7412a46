// Command perfbench is the repository's benchmark: closed-loop Cloudstone
// workloads on the simulated cloud, each measured on two clocks — the
// simulated clock (the research output: throughput, latency, replication
// delay) and the host clock (how fast the simulator produces it).
//
//	bash perfbench/run.sh --workload slave-bound --seed 1 --seconds 36 --trace 0
//
// One run repeats the workload's simulated runs until --seconds of host
// time have passed, checks every run's outcome, and prints one table row
// per metric followed by a JSON summary as the last line. With
// --workload all it does this for every workload in turn. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"cloudrepl/internal/metrics"
)

// workload is one closed-loop Cloudstone configuration: N users with a 7 s
// mean exponential think time, through ramp-up, steady and ramp-down.
type workload struct {
	name       string
	users      int
	readRatio  float64
	scale      int
	cells      int // 0: one cluster; otherwise shard cells of master + slaves
	slaves     int // replicas per cluster or cell
	crossShard bool
	bottleneck string // "slaves" or "master": the CPU expected to saturate
	runs       int    // distinct simulated runs (sub-seeds) per benchmark run
}

var workloads = []workload{
	// The Fig. 3 setting: reads saturate the slaves, and sqlengine read
	// execution dominates host time.
	{name: "slave-bound", users: 90, readRatio: 0.8, scale: 600, slaves: 2, bottleneck: "slaves", runs: 20},
	// The Fig. 2 setting: writes saturate the master, and every write also
	// re-runs on four replicas.
	{name: "master-bound", users: 120, readRatio: 0.5, scale: 300, slaves: 4, bottleneck: "master", runs: 20},
	// The A-SHARD setting: the only workload through the shard router,
	// scatter legs and merge.
	{name: "sharded-scatter", users: 160, readRatio: 0.2, scale: 300, cells: 4, slaves: 1, crossShard: true, bottleneck: "slaves", runs: 16},
}

// subSeed derives the seed of the i-th simulated run of a benchmark seed.
func subSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// metric is one reported number.
type metric struct {
	name, unit, clock, better string
	value                     float64
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: slave-bound, master-bound, sharded-scatter, or all of them in turn")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 36, "host seconds to measure for")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	var chosen []workload
	for _, w := range workloads {
		if w.name == *name || *name == "all" {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	code := 0
	for _, w := range chosen {
		r, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
			return 1
		}
		printReport(w, *seed, r)
		if !r.correct {
			code = 1
		}
	}
	return code
}

// result is one benchmark run's outcome.
type result struct {
	correct           bool
	problems          []string
	attempted, failed int
	episodes          int
	metrics           []metric
	notes             []string
}

// measure runs the workload's simulated runs, sub-seed after sub-seed,
// until the time budget is spent (at least every sub-seed once), and
// aggregates them. Host numbers are medians over every run; simulated
// numbers come from the first pass over the sub-seeds, and every repeat of
// a sub-seed must reproduce them exactly.
//
//cloudrepl:allow-simtime the time budget is host time by definition
func measure(w workload, seed int64, budget time.Duration, traced bool) (*result, error) {
	log := newSpanLog()
	root := log.start("benchmark", 0)
	var prof *profileAcc
	if traced {
		prof = newProfileAcc()
	}
	r := &result{correct: true}
	var first []*episode
	fingerprints := make([]string, w.runs)
	var all []*episode
	start := time.Now()
	for i := 0; i < w.runs || time.Since(start) < budget; i++ {
		sub := i % w.runs
		ep, err := runEpisode(w, subSeed(seed, sub), episodeOpts{replay: i < w.runs, profile: prof, log: log, parent: root})
		if err != nil {
			return nil, fmt.Errorf("sub-seed %d: %w", subSeed(seed, sub), err)
		}
		fp := fmt.Sprintf("%+v", ep.sim)
		if i < w.runs {
			fingerprints[sub] = fp
			first = append(first, ep)
		} else if fp != fingerprints[sub] {
			r.fail("sub-seed %d simulated a different history on a repeat run", subSeed(seed, sub))
		}
		all = append(all, ep)
	}
	r.episodes = len(all)

	var tracedEp *episode
	var overhead float64
	if traced {
		// Tracing overhead: alternate untraced and traced runs of the first
		// sub-seed, neither profiled. Both must simulate the history of the
		// untraced runs; the first traced run supplies the span metrics.
		var plain, spanned []float64
		for k := 0; k < 4; k++ {
			ep, err := runEpisode(w, subSeed(seed, 0), episodeOpts{traced: k%2 == 1, log: log, parent: root})
			if err != nil {
				return nil, fmt.Errorf("trace overhead run: %w", err)
			}
			if fmt.Sprintf("%+v", ep.sim) != fingerprints[0] {
				r.fail("a trace overhead run simulated a different history than the first pass")
			}
			if k%2 == 0 {
				plain = append(plain, ep.host.RunS)
				continue
			}
			spanned = append(spanned, ep.host.RunS)
			if tracedEp == nil {
				tracedEp = ep
			}
		}
		overhead = metrics.Quantile(spanned, 0.5) / metrics.Quantile(plain, 0.5)
	}
	log.end(root)

	for _, ep := range first {
		r.attempted += ep.sim.SteadyOps + ep.sim.SteadyErrors
		r.failed += ep.sim.SteadyErrors
		r.checkBottleneck(w, ep)
	}
	if traced {
		perLayer := perLayerMetrics(first, all, tracedEp, overhead, prof)
		r.metrics = perLayer
		m := make(map[string]float64, len(perLayer))
		for _, x := range perLayer {
			m[x.name] = x.value
		}
		path := fmt.Sprintf(".bench_out/%s-seed%d-trace.json", w.name, seed)
		if err := log.write(path, m); err != nil {
			return nil, err
		}
		r.notes = append(r.notes, "benchmark spans and per-layer metrics written to "+path)
	} else {
		r.metrics = endToEndMetrics(first, all)
	}
	return r, nil
}

func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// backlogGrowthLimit is the steady-state backlog growth, in binlog events,
// above which a run counts as not keeping up: well above the few events of
// jitter a stable run shows, well below the hundreds a saturated applier
// accumulates in five minutes.
const backlogGrowthLimit = 50

// checkBottleneck notes (without failing the run) when the workload's named
// bottleneck no longer holds over the last minute of steady state, or when
// the replication backlog grew through steady state.
func (r *result) checkBottleneck(w workload, ep *episode) {
	s := ep.sim
	holds := s.SlaveUtilEndMax > s.MasterUtilEnd
	if w.bottleneck == "master" {
		holds = s.MasterUtilEnd > s.SlaveUtilEndMax
	}
	if !holds {
		r.notes = append(r.notes, fmt.Sprintf("sub-seed %d: the %s bottleneck did not hold in the last steady minute (master %.2f, slave max %.2f)",
			ep.seed, w.bottleneck, s.MasterUtilEnd, s.SlaveUtilEndMax))
	}
	if s.BacklogGrowth > backlogGrowthLimit {
		r.notes = append(r.notes, fmt.Sprintf("sub-seed %d: replication backlog grew by %.0f events through steady state", ep.seed, s.BacklogGrowth))
	}
}

// endToEndMetrics are the numbers a user of the simulator sees.
func endToEndMetrics(first, all []*episode) []metric {
	var ops, secs, attempted, failed, latN float64
	var delays []float64
	for _, ep := range first {
		delays = append(delays, ep.delays...)
		ops += float64(ep.sim.SteadyOps)
		secs += steadyLen.Seconds()
		attempted += float64(ep.sim.SteadyOps + ep.sim.SteadyErrors)
		failed += float64(ep.sim.SteadyErrors)
		latN += float64(ep.sim.LatN)
	}
	return []metric{
		{"setup_s", "s", "host", "lower", medianOf(all, func(e *episode) float64 { return e.host.SetupS })},
		{"host_s", "s", "host", "lower", medianOf(all, func(e *episode) float64 { return e.host.RunS })},
		{"host_us_per_op", "us", "host", "lower", medianOf(all, func(e *episode) float64 { return e.host.UsPerOp })},
		{"host_allocs_per_op", "count", "host", "lower", medianOf(all, func(e *episode) float64 { return e.host.AllocsPerOp })},
		{"host_peak_heap_mb", "MB", "host", "lower", medianOf(all, func(e *episode) float64 { return e.host.PeakHeapMB })},
		{"sim_ops_per_s", "1/s", "sim", "higher", ops / secs},
		{"sim_latency_p50_ms", "ms", "sim", "lower", medianOf(first, func(e *episode) float64 { return e.sim.LatP50Ms })},
		{"sim_latency_p99_ms", "ms", "sim", "lower", medianOf(first, func(e *episode) float64 { return e.sim.LatP99Ms })},
		{"sim_repl_delay_p95_ms", "ms", "sim", "lower", metrics.Quantile(delays, 0.95)},
		{"failed_ratio", "ratio", "sim", "lower", failed / attempted},
		{"sim_latency_samples", "count", "sim", "higher", latN},
	}
}

// perLayerMetrics are the traced run's numbers, one or more per module.
func perLayerMetrics(first, all []*episode, traced *episode, overhead float64, prof *profileAcc) []metric {
	simMedian := func(f func(simStats) float64) float64 {
		return medianOf(first, func(e *episode) float64 { return f(e.sim) })
	}
	sp := traced.spans
	pct := func(key string, q float64) float64 { return metrics.Quantile(sp.durMs[key], q) }
	share := func(layer string) metric {
		return metric{layer + ".host_share", "ratio", "host", "lower", prof.share(layer)}
	}
	var ms []metric
	add := func(name, unit, clock string, v float64) { ms = append(ms, metric{name, unit, clock, "lower", v}) }

	ms = append(ms, share("sim"))
	add("sim.events_per_op", "count", "sim", simMedian(func(s simStats) float64 { return float64(s.Events) / float64(s.AllOps) }))
	add("sim.host_ns_per_event", "ns", "host", medianOf(all, func(e *episode) float64 { return e.host.NsPerEvent }))

	ms = append(ms, share("sqlengine"))
	for _, sub := range []string{"parse", "plan", "exec", "apply"} {
		ms = append(ms, share("sqlengine."+sub))
	}
	// Only the first pass replays.
	add("sqlengine.replay_ns_per_stmt", "ns", "host", medianOf(first, func(e *episode) float64 { return e.host.ReplayNsPerStmt }))
	add("sqlengine.replay_allocs_per_stmt", "count", "host", medianOf(first, func(e *episode) float64 { return e.host.ReplayAllocsPerStmt }))

	add("server.master_sim_util", "ratio", "sim", simMedian(func(s simStats) float64 { return s.MasterUtil }))
	add("server.slave_sim_util_max", "ratio", "sim", simMedian(func(s simStats) float64 { return s.SlaveUtilMax }))
	add("server.master_sim_cpu_ms_per_op", "ms", "sim", simMedian(func(s simStats) float64 { return s.MasterCPUMsPerOp }))
	add("server.slave_sim_cpu_ms_per_op", "ms", "sim", simMedian(func(s simStats) float64 { return s.SlaveCPUMsPerOp }))
	add("server.exec_sim_ms.p50", "ms", "sim", pct("server/exec", 0.50))
	add("server.exec_sim_ms.p99", "ms", "sim", pct("server/exec", 0.99))
	ms = append(ms, share("server"))

	add("pool.borrow_sim_ms.p99", "ms", "sim", pct("pool/borrow", 0.99))
	add("pool.waits_per_op", "count", "sim", simMedian(func(s simStats) float64 { return s.PoolWaitsPerOp }))
	ms = append(ms, share("pool"))

	add("proxy.route_sim_ms.p99", "ms", "sim", pct("proxy/route", 0.99))
	attempts := 0.0
	if sp.routes > 0 {
		attempts = float64(sp.attempts) / float64(sp.routes)
	}
	add("proxy.attempts_per_op", "count", "sim", attempts)
	add("proxy.master_read_share", "ratio", "sim", simMedian(func(s simStats) float64 { return s.MasterReadShare }))
	ms = append(ms, share("proxy"))

	add("binlog.bytes_per_write", "B", "sim", simMedian(func(s simStats) float64 { return s.BinlogBytesPerWrite }))
	add("binlog.ship_sim_ms.p99", "ms", "sim", pct("binlog/ship", 0.99))
	ms = append(ms, share("binlog"))

	add("repl.apply_sim_ms.p50", "ms", "sim", pct("apply/apply", 0.50))
	add("repl.apply_sim_ms.p99", "ms", "sim", pct("apply/apply", 0.99))
	add("repl.backlog_end_events", "count", "sim", simMedian(func(s simStats) float64 { return s.BacklogEnd }))
	add("repl.backlog_growth_events", "count", "sim", simMedian(func(s simStats) float64 { return s.BacklogGrowth }))
	ms = append(ms, share("repl"))

	add("shard.scatter_share", "ratio", "sim", simMedian(func(s simStats) float64 {
		routed := s.Shard.SingleKey + s.Shard.ScatterOps + s.Shard.Broadcasts + s.Shard.AnyReads
		if routed == 0 {
			return 0
		}
		return float64(s.Shard.ScatterOps) / float64(routed)
	}))
	add("shard.legs_per_scatter", "count", "sim", simMedian(func(s simStats) float64 {
		if s.Shard.ScatterOps == 0 {
			return 0
		}
		return float64(s.Shard.ScatterLegs) / float64(s.Shard.ScatterOps)
	}))
	add("shard.single_sim_ms.p99", "ms", "sim", simMedian(func(s simStats) float64 { return s.ShardSingleP99 }))
	add("shard.scatter_sim_ms.p99", "ms", "sim", simMedian(func(s simStats) float64 { return s.ShardScatterP99 }))
	add("shard.wrong_shard_retries", "count", "sim", simMedian(func(s simStats) float64 { return float64(s.Shard.WrongShardRetries) }))
	var queries, wrong int
	for _, ep := range first {
		queries += ep.sim.AuditQueries
		wrong += ep.sim.AuditWrong
	}
	audit := 0.0
	if queries > 0 {
		audit = float64(wrong) / float64(queries)
	}
	add("shard.audit_wrong_answer_ratio", "ratio", "sim", audit)
	ms = append(ms, share("shard"))

	for _, layer := range []string{"cloud", "cloudstone", "heartbeat", "vclock", "obs", "metrics", "core", "cluster", "gc", "runtime", "bench"} {
		ms = append(ms, share(layer))
	}
	attributed := 0.0
	for _, layer := range profileLayers {
		attributed += prof.share(layer)
	}
	ms = append(ms,
		metric{"trace.attributed_share", "ratio", "host", "higher", attributed},
		metric{"trace.profile_samples", "count", "host", "higher", float64(prof.total)})
	add("trace.overhead_ratio", "ratio", "host", overhead)
	for _, stage := range stages {
		add("span."+stage+".self_sim_ms_per_op", "ms", "sim", sp.selfMsPerOp[stage])
	}
	return ms
}

// profileLayers are the layers a profile sample is charged to, other than
// the benchmark itself.
var profileLayers = []string{"sim", "sqlengine", "server", "pool", "proxy", "binlog", "repl", "shard",
	"cloud", "cloudstone", "heartbeat", "vclock", "obs", "metrics", "core", "cluster", "gc", "runtime"}

// medianOf is the median of f over the episodes.
func medianOf(eps []*episode, f func(*episode) float64) float64 {
	xs := make([]float64, len(eps))
	for i, e := range eps {
		xs[i] = f(e)
	}
	return metrics.Quantile(xs, 0.5)
}

// printReport prints the settings, one row per metric and the JSON summary
// line.
func printReport(w workload, seed int64, r *result) {
	fmt.Printf("perfbench %s seed %d: %d users, %.0f/%.0f reads/writes, scale %d, ", w.name, seed, w.users,
		w.readRatio*100, (1-w.readRatio)*100, w.scale)
	if w.cells > 0 {
		fmt.Printf("%d cells x (master + %d slave(s))\n", w.cells, w.slaves)
	} else {
		fmt.Printf("master + %d slave(s)\n", w.slaves)
	}
	fmt.Printf("protocol %v/%v/%v, %d sub-seeds, %d simulated runs; %s\n",
		rampUp, steadyLen, rampDown, w.runs, r.episodes, hostSettings())
	fmt.Printf("%-36s %16s %-6s %-5s %s\n", "metric", "value", "unit", "clock", "better")
	for _, m := range r.metrics {
		fmt.Printf("%-36s %16.6g %-6s %-5s %s\n", m.name, m.value, m.unit, m.clock, m.better)
	}
	for _, n := range r.notes {
		fmt.Println("note:", n)
	}
	for _, p := range r.problems {
		fmt.Println("FAILED CHECK:", p)
	}
	out := map[string]any{
		"correct":   r.correct,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   map[string]any{},
	}
	ms := out["metrics"].(map[string]any)
	for _, m := range r.metrics {
		if reported(m.name) {
			ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
}

// hostSettings names the Go runtime settings the host numbers depend on.
func hostSettings() string {
	gogc := debug.SetGCPercent(100)
	debug.SetGCPercent(gogc)
	return fmt.Sprintf("GOGC=%d GOMAXPROCS=%d nproc=%d %s", gogc, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
}

// reported reports whether a metric goes into the JSON summary. The rest
// are printed in the table only: failed_ratio is 0 on every workload, and
// on a shared VM the run time of one simulated run moves with other
// tenants' load by more than any bound could allow (see README.md).
func reported(name string) bool {
	switch name {
	case "failed_ratio", "sim_latency_samples", "host_s", "host_us_per_op":
		return false
	}
	return true
}
