package experiment

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"cloudrepl/internal/sim"
)

// KernelMeasure is one kernel-speed measurement: how many simulation
// events were dispatched, how long it took on the wall clock, and the
// derived rates the regression gate watches.
type KernelMeasure struct {
	Events         uint64  `json:"events"`
	WallMs         float64 `json:"wall_ms"`
	EventsPerSec   float64 `json:"events_per_sec"`
	NsPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
}

// KernelBenchResult is the BENCH_kernel.json payload: the raw speed of the
// simulation kernel, tracked PR-over-PR so scheduler and allocation
// regressions surface immediately (`make bench-kernel` gates on
// micro.ns_per_event and cell.allocs_per_event against the checked-in
// bench/kernel_baseline.json).
type KernelBenchResult struct {
	// Micro is a pure-kernel workload — timers, signal waits with
	// timeouts, cross-proc message delivery — with no SQL or middleware on
	// top, so it isolates the scheduler + event-pool cost per event.
	Micro KernelMeasure `json:"micro"`
	// Cell is one Fig. 2-style experiment cell on the quick protocol: the
	// kernel cost with the full model stack (proxy→pool→server→binlog)
	// running on top of it.
	Cell KernelMeasure `json:"cell"`
	// FiguresWallMs is the summed wall-clock of the bench sections that ran
	// before this one in the same invocation (the figure/ablation sweep
	// under -all); exactly 0 for a standalone run.
	FiguresWallMs float64 `json:"figures_wall_ms"`
}

// measureKernel wall-clocks run (which reports how many kernel events it
// dispatched) and derives the per-event rates. Allocations are measured
// process-wide via MemStats: the harness is quiesced around the run, so
// the delta is dominated by the workload itself.
func measureKernel(run func() uint64) KernelMeasure {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	//cloudrepl:allow-simtime the kernel bench measures real elapsed wall time per simulated event
	start := time.Now()
	events := run()
	//cloudrepl:allow-simtime the kernel bench measures real elapsed wall time per simulated event
	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	m := KernelMeasure{Events: events, WallMs: float64(wall.Nanoseconds()) / 1e6}
	if events > 0 {
		m.NsPerEvent = float64(wall.Nanoseconds()) / float64(events)
		m.AllocsPerEvent = float64(after.Mallocs-before.Mallocs) / float64(events)
	}
	if wall > 0 {
		m.EventsPerSec = float64(events) / wall.Seconds()
	}
	return m
}

// kernelPing is the micro-workload's Deliverable: a message that re-sends
// itself with a fixed per-hop latency until the run ends, modelling the
// kernel cost of network delivery without any network model on top.
type kernelPing struct {
	env  *sim.Env
	hop  time.Duration
	hops int
}

func (k *kernelPing) Deliver() {
	k.hops++
	k.env.ScheduleDeliver(k.hop, k)
}

// kernelMicroWorkload exercises every hot kernel path — timer events
// (Sleep), signal waits with timeouts that usually cancel (the proxied
// query pattern), broadcasts, and self-rescheduling message delivery — for
// a fixed stretch of virtual time, and reports the events dispatched. All
// scheduling derives from the seed, so the event count is deterministic.
func kernelMicroWorkload(seed int64) uint64 {
	env := sim.NewEnv(seed)
	const (
		procs   = 64
		pings   = 16
		horizon = 30 * time.Second // virtual
	)
	sig := sim.NewSignal(env).Named("kernel-bench")
	for i := 0; i < procs; i++ {
		id := i
		env.Go("bench-proc", func(p *sim.Proc) {
			for j := 0; ; j++ {
				p.Sleep(time.Duration(1+(id+j)%7) * time.Millisecond)
				switch (id + j) % 4 {
				case 0:
					sig.Broadcast()
				default:
					// Mostly signaled before the deadline: the
					// cancelled-timer tombstone path.
					sig.WaitTimeout(p, 50*time.Millisecond)
				}
			}
		})
	}
	for i := 0; i < pings; i++ {
		ping := &kernelPing{env: env, hop: time.Duration(1+i) * 500 * time.Microsecond}
		env.ScheduleDeliver(ping.hop, ping)
	}
	env.RunUntil(sim.Time(horizon))
	env.Stop()
	events := env.Events()
	env.Shutdown()
	return events
}

// KernelBench measures the simulation kernel's raw speed: a pure-kernel
// micro-workload and one full experiment cell. figuresWall is recorded as
// FiguresWallMs.
func KernelBench(opts SweepOpts, figuresWall time.Duration) (KernelBenchResult, error) {
	res := KernelBenchResult{
		FiguresWallMs: float64(figuresWall.Nanoseconds()) / 1e6,
	}
	res.Micro = measureKernel(func() uint64 { return kernelMicroWorkload(opts.Seed) })

	ramp, steady, down := opts.phases()
	spec := RunSpec{
		Seed: opts.Seed, Users: 100, Slaves: 2, Scale: 300, ReadRatio: 0.5,
		Loc: SameZone, RampUp: ramp, Steady: steady, RampDown: down,
	}
	var err error
	res.Cell = measureKernel(func() uint64 {
		r, rerr := Run(spec)
		if rerr != nil {
			err = rerr
			return 0
		}
		return r.KernelEvents
	})
	return res, err
}

// renderKernelBench formats BENCH_kernel for the console.
func renderKernelBench(r KernelBenchResult) string {
	var b strings.Builder
	b.WriteString("BENCH-KERNEL — simulation kernel speed\n\n")
	fmt.Fprintf(&b, "%-28s %14s %12s %12s %14s\n",
		"workload", "events", "events/sec", "ns/event", "allocs/event")
	row := func(name string, m KernelMeasure) {
		fmt.Fprintf(&b, "%-28s %14d %12.0f %12.1f %14.3f\n",
			name, m.Events, m.EventsPerSec, m.NsPerEvent, m.AllocsPerEvent)
	}
	row("micro (pure kernel)", r.Micro)
	row("cell (full model stack)", r.Cell)
	if r.FiguresWallMs > 0 {
		fmt.Fprintf(&b, "\nsurrounding figure sweep wall-clock: %.1fs\n", r.FiguresWallMs/1e3)
	}
	return b.String()
}

// CheckKernelBaseline compares a fresh kernel bench against the checked-in
// baseline. It fails when the micro workload's ns/event has regressed more
// than 20% — the micro number is the least noisy wall-clock figure on
// shared CI hardware — or when the cell workload's allocs/event has grown
// more than 2%: allocations per event are deterministic, so the cell is
// gated on them, not on its noisy ns/event.
func CheckKernelBaseline(path string, cur KernelBenchResult) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("kernel baseline: %w", err)
	}
	var base KernelBenchResult
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("kernel baseline %s: %w", path, err)
	}
	gates := []struct {
		field     string
		cur, base float64
		tolerance float64
	}{
		{"micro.ns_per_event", cur.Micro.NsPerEvent, base.Micro.NsPerEvent, 0.20},
		{"cell.allocs_per_event", cur.Cell.AllocsPerEvent, base.Cell.AllocsPerEvent, 0.02},
	}
	for _, g := range gates {
		if g.base <= 0 {
			return fmt.Errorf("kernel baseline %s: %s missing or zero", path, g.field)
		}
		if limit := g.base * (1 + g.tolerance); g.cur > limit {
			return fmt.Errorf("kernel regression: %s %.3f exceeds baseline %.3f by more than %.0f%% (limit %.3f); if intentional, refresh %s",
				g.field, g.cur, g.base, 100*g.tolerance, limit, path)
		}
	}
	return nil
}

// kernelShardsArm returns the KERNEL-SHARDS determinism arm: the same
// small spec grid through RunShards, serial on its first call and at full
// parallelism on its second, so the check byte-compares the two merged
// results. Any cross-worker state leak or completion-order dependence shows
// up as a byte difference.
func kernelShardsArm() func(SweepOpts) (any, error) {
	calls := 0
	return func(opts SweepOpts) (any, error) {
		ramp, steady, down := opts.phases()
		var specs []RunSpec
		for i := 0; i < 4; i++ {
			specs = append(specs, RunSpec{
				Seed: opts.Seed + int64(i), Users: 50 + 25*i, Slaves: 1 + i%2,
				Scale: 300, ReadRatio: 0.5, Loc: SameZone,
				RampUp: ramp, Steady: steady, RampDown: down,
			})
		}
		par := 1 // serial first, then GOMAXPROCS
		if calls%2 == 1 {
			par = 0
		}
		calls++
		results, err := RunShards(specs, par, nil)
		if err != nil {
			return nil, err
		}
		rows := make([]runRow, len(results))
		for i, r := range results {
			rows[i] = newRunRow(r)
		}
		return rows, nil
	}
}
