package experiment

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"cloudrepl/internal/binlog"
	"cloudrepl/internal/cloud"
	"cloudrepl/internal/cloudstone"
	"cloudrepl/internal/cluster"
	"cloudrepl/internal/core"
	"cloudrepl/internal/heartbeat"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

// PlanBenchMeasure is one query-shape measurement: fixed iteration count,
// wall-clocked, with the engine's rows-examined counter and process-wide
// allocation delta turned into the rates the regression gate watches.
type PlanBenchMeasure struct {
	Ops          uint64  `json:"ops"`
	RowsExamined uint64  `json:"rows_examined"`
	WallMs       float64 `json:"wall_ms"`
	OpsPerSec    float64 `json:"ops_per_sec"`
	RowsPerSec   float64 `json:"rows_per_sec"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
}

// PlanBenchResult is the BENCH_planner.json payload: the executor's speed on
// the four query shapes the planner work rebuilt, and the replica applier's
// — tracked PR-over-PR so operator-tree and apply-path regressions surface
// immediately (`make bench-plan` gates rows/sec and the applier's
// allocations per statement against the checked-in
// bench/planner_baseline.json).
type PlanBenchResult struct {
	// PointRead is a unique-key lookup: plan-cache hit + one index probe,
	// the executor's minimum per-statement overhead.
	PointRead PlanBenchMeasure `json:"point_read"`
	// IndexScan is a non-unique eq bucket scan with a residual filter.
	IndexScan PlanBenchMeasure `json:"index_scan"`
	// HashJoin is a full two-table equi-join with no usable inner index, so
	// the planner must pick the hash algorithm (asserted at setup).
	HashJoin PlanBenchMeasure `json:"hash_join"`
	// GroupAgg is a grouped COUNT over the full table.
	GroupAgg PlanBenchMeasure `json:"group_agg"`
	// Apply replays a recorded Cloudstone write binlog into a fresh engine
	// through the replica apply entry point (Session.ExecUncached): one op
	// is one replicated statement, so ops_per_sec is statements/s and
	// allocs_per_op allocations per statement.
	Apply PlanBenchMeasure `json:"apply"`
}

// planBenchRows is the benchmark table size, small enough that the whole
// suite runs in a few seconds, large enough that per-row costs dominate.
const planBenchRows = 4000

// planBenchDB loads the synthetic benchmark schema: items (unique PK,
// indexed non-unique group column) and lines (one child per item, with the
// join column deliberately unindexed so an items⋈lines equi-join can only
// choose between hash and nested-loop).
func planBenchDB() (*sqlengine.Engine, *sqlengine.Session, error) {
	eng := sqlengine.NewEngine()
	sess := eng.NewSession("")
	ddl := []string{
		"CREATE DATABASE bench",
		"USE bench",
		"CREATE TABLE items (id BIGINT PRIMARY KEY, grp BIGINT, val VARCHAR(32), INDEX idx_grp (grp))",
		"CREATE TABLE lines (id BIGINT PRIMARY KEY, ref BIGINT, qty BIGINT)",
	}
	for _, q := range ddl {
		if _, err := sess.ExecUncached(q); err != nil {
			return nil, nil, fmt.Errorf("planbench: %s: %w", q, err)
		}
	}
	ins, err := eng.Prepare("INSERT INTO items (id, grp, val) VALUES (?, ?, ?)")
	if err != nil {
		return nil, nil, err
	}
	insLine, err := eng.Prepare("INSERT INTO lines (id, ref, qty) VALUES (?, ?, ?)")
	if err != nil {
		return nil, nil, err
	}
	for i := 1; i <= planBenchRows; i++ {
		if _, err := ins.Run(sess,
			sqlengine.NewInt(int64(i)),
			sqlengine.NewInt(int64(i%50)),
			sqlengine.NewString(fmt.Sprintf("item%05d", i))); err != nil {
			return nil, nil, err
		}
		if _, err := insLine.Run(sess,
			sqlengine.NewInt(int64(i)),
			sqlengine.NewInt(int64(i)),
			sqlengine.NewInt(int64(i%7))); err != nil {
			return nil, nil, err
		}
	}
	return eng, sess, nil
}

// measurePlanBench runs one prepared query shape for iters iterations and
// derives the rates. One untimed warm-up execution populates the plan cache
// and refreshes statistics, so the loop measures steady-state execution.
func measurePlanBench(sess *sqlengine.Session, st *sqlengine.Statement, iters int,
	args func(i int) []sqlengine.Value) (PlanBenchMeasure, error) {
	if _, err := st.Run(sess, args(0)...); err != nil {
		return PlanBenchMeasure{}, err
	}
	return measureOps(iters, nil, func() (uint64, error) {
		var rows uint64
		for i := 0; i < iters; i++ {
			res, err := st.Run(sess, args(i)...)
			if err != nil {
				return 0, err
			}
			rows += uint64(res.Stats.RowsExamined)
		}
		return rows, nil
	})
}

// measureOps times run, which performs ops operations and returns the rows
// they examined, and derives the rates. setup, when non-nil, prepares each
// repetition outside the measurement. The timed run repeats three times and
// the fastest repetition is reported: wall-clock noise (GC pauses,
// scheduler preemption) is one-sided, so best-of-N is what makes a 20%
// regression gate hold on shared hardware. Allocations are averaged over
// every repetition — they are deterministic.
func measureOps(ops int, setup func() error, run func() (uint64, error)) (PlanBenchMeasure, error) {
	const reps = 3
	var rows, mallocs uint64
	var best time.Duration
	for r := 0; r < reps; r++ {
		if setup != nil {
			if err := setup(); err != nil {
				return PlanBenchMeasure{}, err
			}
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		//cloudrepl:allow-simtime the planner bench measures real elapsed wall time per statement
		start := time.Now()
		n, err := run()
		//cloudrepl:allow-simtime the planner bench measures real elapsed wall time per statement
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return PlanBenchMeasure{}, err
		}
		rows = n
		mallocs += after.Mallocs - before.Mallocs
		if r == 0 || wall < best {
			best = wall
		}
	}

	m := PlanBenchMeasure{
		Ops:          uint64(ops),
		RowsExamined: rows,
		WallMs:       float64(best.Nanoseconds()) / 1e6,
	}
	if ops > 0 {
		m.AllocsPerOp = float64(mallocs) / float64(reps*ops)
	}
	if best > 0 {
		m.OpsPerSec = float64(ops) / best.Seconds()
		m.RowsPerSec = float64(rows) / best.Seconds()
	}
	return m, nil
}

// applyBenchUsers sizes the Cloudstone load whose binlog the applier bench
// replays: on the short protocol at 20/80 reads/writes it records a few
// thousand writes of every driver shape, plus heartbeats.
const applyBenchUsers = 60

// recordWriteBinlog runs a short 20/80 Cloudstone load with heartbeats on a
// master without replicas and returns the master's statement binlog; its
// first preloaded entries are the schema and the data preload.
func recordWriteBinlog() (entries []binlog.Entry, preloaded int, err error) {
	env := sim.NewEnv(1)
	cfg := cloud.DefaultConfig()
	cfg.CPUCoV = 0
	clu, err := cluster.New(env, cloud.New(env, cfg), cluster.Config{
		Cost:   server.DefaultCostModel(),
		Master: cluster.NodeSpec{Place: MasterPlacement},
		Preload: func(srv *server.DBServer) error {
			if err := cloudstone.Preload(300)(srv); err != nil {
				return err
			}
			return heartbeat.Preload(srv)
		},
	})
	if err != nil {
		return nil, 0, err
	}
	log := clu.Master().Srv.Log
	preloaded = int(log.LastSeq())
	db := core.Open(clu, core.WithDatabase(cloudstone.DatabaseName), core.WithClientPlace(MasterPlacement))
	hb := heartbeat.Start(env, clu.Master(), time.Second)
	ramp, steady, down := SweepOpts{Short: true}.phases()
	cloudstone.NewDriver(db, cloudstone.Config{
		Scale: 300, ReadRatio: 0.2, Users: applyBenchUsers,
		RampUp: ramp, Steady: steady, RampDown: down,
	}).Start(env)
	env.RunUntil(env.Now() + ramp + steady + down)
	hb.Stop()
	env.Stop()
	env.Shutdown()
	for seq := uint64(1); seq <= log.LastSeq(); seq++ {
		e, err := log.At(seq)
		if err != nil {
			return nil, 0, err
		}
		entries = append(entries, e)
	}
	return entries, preloaded, nil
}

// applyEntries re-executes binlog entries on a replica session the way the
// slave SQL thread does (server.DBServer.Apply) and returns the rows they
// examined.
func applyEntries(sess *sqlengine.Session, entries []binlog.Entry) (uint64, error) {
	var rows uint64
	for _, e := range entries {
		if e.Database != "" && sess.DB() != e.Database {
			if err := sess.Use(e.Database); err != nil {
				return 0, err
			}
		}
		res, err := sess.ExecUncached(e.SQL)
		if err != nil {
			return 0, fmt.Errorf("apply %q: %w", e.SQL, err)
		}
		rows += uint64(res.Stats.RowsExamined)
	}
	return rows, nil
}

// measureApply times the replay of a recorded binlog's run-phase writes:
// each repetition starts from a fresh engine brought to the post-preload
// state by an untimed replay of the preload entries.
func measureApply() (PlanBenchMeasure, error) {
	entries, preloaded, err := recordWriteBinlog()
	if err != nil {
		return PlanBenchMeasure{}, err
	}
	var sess *sqlengine.Session
	return measureOps(len(entries)-preloaded, func() error {
		sess = sqlengine.NewEngine().NewSession("")
		_, err := applyEntries(sess, entries[:preloaded])
		return err
	}, func() (uint64, error) {
		return applyEntries(sess, entries[preloaded:])
	})
}

// PlanBench measures executor speed on the four query shapes. The hash-join
// plan choice is asserted, not assumed: if the planner stops picking the
// hash algorithm for the unindexed join, the bench fails rather than
// silently measuring a different operator.
func PlanBench() (PlanBenchResult, error) {
	var res PlanBenchResult
	eng, sess, err := planBenchDB()
	if err != nil {
		return res, err
	}

	point, err := eng.Prepare("SELECT * FROM items WHERE id = ?")
	if err != nil {
		return res, err
	}
	res.PointRead, err = measurePlanBench(sess, point, 20000, func(i int) []sqlengine.Value {
		return []sqlengine.Value{sqlengine.NewInt(int64(i%planBenchRows) + 1)}
	})
	if err != nil {
		return res, fmt.Errorf("planbench point read: %w", err)
	}

	scan, err := eng.Prepare("SELECT id, val FROM items WHERE grp = ?")
	if err != nil {
		return res, err
	}
	res.IndexScan, err = measurePlanBench(sess, scan, 4000, func(i int) []sqlengine.Value {
		return []sqlengine.Value{sqlengine.NewInt(int64(i % 50))}
	})
	if err != nil {
		return res, fmt.Errorf("planbench index scan: %w", err)
	}

	join, err := eng.Prepare("SELECT COUNT(*) AS n FROM items i JOIN lines l ON l.ref = i.id WHERE l.qty = ?")
	if err != nil {
		return res, err
	}
	jp, err := join.Plan(sess)
	if err != nil {
		return res, err
	}
	if !strings.Contains(jp.Explain(), "hash_join") {
		return res, fmt.Errorf("planbench: join plan is not a hash join:\n%s", jp.Explain())
	}
	res.HashJoin, err = measurePlanBench(sess, join, 100, func(i int) []sqlengine.Value {
		return []sqlengine.Value{sqlengine.NewInt(int64(i % 7))}
	})
	if err != nil {
		return res, fmt.Errorf("planbench hash join: %w", err)
	}

	agg, err := eng.Prepare("SELECT grp, COUNT(*) AS n FROM items GROUP BY grp ORDER BY n DESC")
	if err != nil {
		return res, err
	}
	res.GroupAgg, err = measurePlanBench(sess, agg, 200, func(int) []sqlengine.Value { return nil })
	if err != nil {
		return res, fmt.Errorf("planbench group agg: %w", err)
	}

	res.Apply, err = measureApply()
	if err != nil {
		return res, fmt.Errorf("planbench apply: %w", err)
	}
	return res, nil
}

// renderPlanBench formats BENCH_planner for the console.
func renderPlanBench(r PlanBenchResult) string {
	var b strings.Builder
	b.WriteString("BENCH-PLANNER — executor speed by query shape\n\n")
	fmt.Fprintf(&b, "%-16s %9s %14s %12s %12s %14s\n",
		"shape", "ops", "rows examined", "ops/sec", "rows/sec", "allocs/op")
	row := func(name string, m PlanBenchMeasure) {
		fmt.Fprintf(&b, "%-16s %9d %14d %12.0f %12.0f %14.1f\n",
			name, m.Ops, m.RowsExamined, m.OpsPerSec, m.RowsPerSec, m.AllocsPerOp)
	}
	row("point read", r.PointRead)
	row("index scan", r.IndexScan)
	row("hash join", r.HashJoin)
	row("group aggregate", r.GroupAgg)
	row("replica apply", r.Apply)
	return b.String()
}

// CheckPlanBaseline compares a fresh planner bench against the checked-in
// baseline and fails when any query shape's rows/sec has regressed more than
// 20% (point read gates ops/sec instead — it examines one row per statement,
// so per-statement overhead is what it exists to catch), or when the
// applier's allocations per statement exceed the baseline by more than 2%:
// they are deterministic, so the applier is gated on them rather than on its
// noisy statements/s. Refresh deliberately with:
// cp <jsondir>/BENCH_planner.json bench/planner_baseline.json
func CheckPlanBaseline(path string, cur PlanBenchResult) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("planner baseline: %w", err)
	}
	var base PlanBenchResult
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("planner baseline %s: %w", path, err)
	}
	gates := []struct {
		shape             string
		curRate, baseRate float64
	}{
		{"point_read ops", cur.PointRead.OpsPerSec, base.PointRead.OpsPerSec},
		{"index_scan rows", cur.IndexScan.RowsPerSec, base.IndexScan.RowsPerSec},
		{"hash_join rows", cur.HashJoin.RowsPerSec, base.HashJoin.RowsPerSec},
		{"group_agg rows", cur.GroupAgg.RowsPerSec, base.GroupAgg.RowsPerSec},
	}
	for _, g := range gates {
		if g.baseRate <= 0 {
			return fmt.Errorf("planner baseline %s: %s rate missing or zero", path, g.shape)
		}
		if limit := g.baseRate / 1.20; g.curRate < limit {
			return fmt.Errorf("planner regression: %s %.0f/sec is more than 20%% below baseline %.0f/sec (limit %.0f); if intentional, refresh %s",
				g.shape, g.curRate, g.baseRate, limit, path)
		}
	}
	if base.Apply.AllocsPerOp <= 0 {
		return fmt.Errorf("planner baseline %s: apply allocs_per_op missing or zero", path)
	}
	if limit := base.Apply.AllocsPerOp * 1.02; cur.Apply.AllocsPerOp > limit {
		return fmt.Errorf("planner regression: apply allocs_per_op %.2f exceeds baseline %.2f by more than 2%% (limit %.2f); if intentional, refresh %s",
			cur.Apply.AllocsPerOp, base.Apply.AllocsPerOp, limit, path)
	}
	return nil
}
