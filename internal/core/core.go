// Package core is the public face of cloudrepl: an application-managed
// replicated database handle. It composes the cluster (master + slaves on
// cloud VMs), a DBCP-style connection pool and a read/write-splitting proxy
// into the single object an application codes against — the architecture
// the paper ports from a conventional data center onto cloud VMs.
//
//	db := core.Open(clu,
//		core.WithDatabase("app"),
//		core.WithClientPlace(place),
//		core.WithRetryPolicy(proxy.DefaultRetryPolicy()))
//	db.Exec(p, "INSERT INTO t ...")   // routed to the master
//	db.Query(p, "SELECT ...")         // balanced over the slaves
//
// The handle is configured with functional options (see options.go); the
// deprecated Options struct in legacy.go remains as a shim.
package core

import (
	"errors"
	"fmt"
	"time"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/cluster"
	"cloudrepl/internal/metrics"
	"cloudrepl/internal/obs"
	"cloudrepl/internal/pool"
	"cloudrepl/internal/proxy"
	"cloudrepl/internal/repl"
	"cloudrepl/internal/shard"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

// Conn is what the handle's pool lends out per statement: a single-cluster
// proxy connection or a sharded routed connection — the application never
// sees the difference.
type Conn interface {
	Exec(p *sim.Proc, sql string, args ...sqlengine.Value) (*proxy.ExecResult, error)
}

// DB is a replicated database handle. In single-cluster mode (Open) it
// fronts one cluster behind one proxy; in sharded mode (OpenSharded) it
// fronts N cells behind the shard router, through the same Exec/Query/
// Scale surface.
type DB struct {
	clu    *cluster.Cluster // nil in sharded mode
	px     *proxy.Proxy     // nil in sharded mode
	sc     *shard.Cluster   // nil in single-cluster mode
	pool   *pool.Pool[Conn]
	cfg    config
	tracer *obs.Tracer
	reg    *obs.Registry

	// Per-statement instruments, resolved on first use so the Exec hot path
	// does one registry map lookup per handle, not per statement. They stay
	// nil (and no-op) when metrics are disabled, and are not materialized
	// before first use so a snapshot only shows metrics that were touched.
	mClientErrors *obs.Counter
	mClientExec   *metrics.Histogram
}

// clientErrors lazily resolves the client.errors counter (nil with metrics
// disabled). Only error paths reach it, so the lookup-on-miss never sits
// on the statement fast path.
func (db *DB) clientErrors() *obs.Counter {
	if db.mClientErrors == nil && db.reg != nil {
		db.mClientErrors = db.reg.Counter("client.errors")
	}
	return db.mClientErrors
}

// clientExec lazily resolves the client.exec latency histogram.
func (db *DB) clientExec() *metrics.Histogram {
	if db.mClientExec == nil && db.reg != nil {
		db.mClientExec = db.reg.Histogram("client.exec")
	}
	return db.mClientExec
}

// Open wires a handle onto a running cluster.
func Open(clu *cluster.Cluster, opts ...Option) *DB {
	var cfg config
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	if cfg.pool.MaxActive == 0 {
		cfg.pool = pool.Config{MaxActive: 64, MaxIdle: 64}
	}
	px := proxy.New(clu.Env(), clu.Cloud().Network(), clu.Master(), cfg.clientPlace, cfg.balancer)
	px.ReadYourWrites = cfg.readYourWrites
	px.Consistency = cfg.consistency
	px.MaxStaleEvents = cfg.maxStaleEvents
	px.Retry = cfg.retry
	if cfg.retry.FailoverOnMasterDown {
		px.OnMasterFailure = func(p *sim.Proc) (*repl.Master, error) {
			return clu.Failover()
		}
	}
	db := &DB{clu: clu, px: px, cfg: cfg, tracer: cfg.tracer, reg: cfg.registry}
	if db.reg == nil && !cfg.noMetrics {
		db.reg = obs.NewRegistry()
	}
	// Reservoir sampling in registry histograms uses the env RNG (only once
	// a histogram exceeds its cap, so short runs draw nothing extra).
	db.reg.SetRand(clu.Env().Rand())
	if cfg.tracer != nil {
		px.Tracer = cfg.tracer
		clu.SetTracer(cfg.tracer)
	}
	db.pool = pool.New(clu.Env(), cfg.pool,
		func() Conn { return px.Connect(cfg.database) },
		nil)
	db.pool.Tracer = cfg.tracer
	return db
}

// OpenSharded builds a cell-sharded deployment and wires a handle onto it:
// WithShards(n) cells, each a full cluster from the cellCfg template
// (instances named "cell<i>/..."), fronted by the shard router. The
// application surface is unchanged — Exec routes single-key statements to
// the owning cell and scatters multi-key reads; Scale spreads replica
// deltas across cells; SplitShard grows the tier by a cell online.
func OpenSharded(env *sim.Env, cl *cloud.Cloud, cellCfg cluster.Config, opts ...Option) (*DB, error) {
	var cfg config
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	if cfg.shards < 1 {
		cfg.shards = 1
	}
	if cfg.pool.MaxActive == 0 {
		cfg.pool = pool.Config{MaxActive: 64, MaxIdle: 64}
	}
	sc, err := shard.New(env, cl, shard.Config{
		Cells:              cfg.shards,
		Slots:              cfg.shardSlots,
		Keyspace:           cfg.keyspace,
		Database:           cfg.database,
		Cell:               cellCfg,
		PartitionedPreload: cfg.partitionedPreload,
		ClientPlace:        cfg.clientPlace,
		Balancer:           cfg.balancerFactory,
		ReadYourWrites:     cfg.readYourWrites,
		Consistency:        cfg.consistency,
		MaxStaleEvents:     cfg.maxStaleEvents,
		Retry:              cfg.retry,
	})
	if err != nil {
		return nil, err
	}
	db := &DB{sc: sc, cfg: cfg, tracer: cfg.tracer, reg: cfg.registry}
	if db.reg == nil && !cfg.noMetrics {
		db.reg = obs.NewRegistry()
	}
	db.reg.SetRand(env.Rand())
	if cfg.tracer != nil {
		sc.SetTracer(cfg.tracer)
	}
	db.pool = pool.New(env, cfg.pool,
		func() Conn { return sc.Connect(cfg.database) },
		nil)
	db.pool.Tracer = cfg.tracer
	return db, nil
}

// Cluster returns the underlying cluster (nil in sharded mode — use
// Shards().Cells() for the per-cell clusters).
func (db *DB) Cluster() *cluster.Cluster { return db.clu }

// Proxy returns the routing proxy (nil in sharded mode — each cell has its
// own, at Shards().Cell(i).Px).
func (db *DB) Proxy() *proxy.Proxy { return db.px }

// Shards returns the sharded cluster (nil in single-cluster mode).
func (db *DB) Shards() *shard.Cluster { return db.sc }

// Pool returns the connection pool.
func (db *DB) Pool() *pool.Pool[Conn] { return db.pool }

// Registry returns the handle's metrics registry: the one passed via
// WithMetrics, or the handle's own — nil only under WithoutMetrics, and a
// nil registry is safe to instrument against (every lookup no-ops).
func (db *DB) Registry() *obs.Registry { return db.reg }

// Exec borrows a connection, routes and executes one statement, and returns
// the connection to the pool. It must be called from a simulation process.
// With tracing on it opens the root "client" span of the statement's trace;
// end-to-end latency is always recorded into the registry's client.exec
// histogram.
func (db *DB) Exec(p *sim.Proc, sql string, args ...sqlengine.Value) (*proxy.ExecResult, error) {
	sp := db.tracer.StartSpan(p, "client", "exec")
	start := p.Now()
	conn, err := db.pool.Borrow(p)
	if err != nil {
		db.clientErrors().Inc()
		sp.SetAttr("error", "pool")
		sp.End(p)
		return nil, err
	}
	res, err := conn.Exec(p, sql, args...)
	db.pool.Return(conn)
	db.clientExec().Record(time.Duration(p.Now() - start))
	if err != nil {
		db.clientErrors().Inc()
		sp.SetAttr("error", "exec")
	}
	sp.End(p)
	return res, err
}

// Query is Exec returning the result set.
func (db *DB) Query(p *sim.Proc, sql string, args ...sqlengine.Value) (*sqlengine.ResultSet, error) {
	res, err := db.Exec(p, sql, args...)
	if err != nil {
		return nil, err
	}
	return res.Result.Set, nil
}

// Staleness summarizes the cluster's current replication state as seen by
// the application: per-slave events behind the master.
type Staleness struct {
	Slaves []SlaveLag
	// MaxEvents is the worst lag across slaves.
	MaxEvents uint64
}

// SlaveLag is one replica's lag.
type SlaveLag struct {
	Name         string
	EventsBehind uint64
	RelayBacklog int
}

// Staleness samples the replication lag of every attached slave — across
// every cell in sharded mode (slave names carry their cell prefix).
func (db *DB) Staleness() Staleness {
	var st Staleness
	for _, sl := range db.allSlaves() {
		lag := sl.EventsBehindMaster()
		st.Slaves = append(st.Slaves, SlaveLag{
			Name:         sl.Srv.Name,
			EventsBehind: lag,
			RelayBacklog: sl.RelayBacklog(),
		})
		if lag > st.MaxEvents {
			st.MaxEvents = lag
		}
	}
	return st
}

// allSlaves enumerates every attached replica: the cluster's in
// single-cluster mode, every cell's (in cell order) in sharded mode.
func (db *DB) allSlaves() []*repl.Slave {
	if db.sc == nil {
		return db.clu.Master().Slaves()
	}
	var out []*repl.Slave
	for _, cell := range db.sc.Cells() {
		out = append(out, cell.Clu.Master().Slaves()...)
	}
	return out
}

// ErrNoSlaves is returned by scale-in when the cluster has no replica to
// remove.
var ErrNoSlaves = errors.New("core: no slave to remove")

// ErrSharded is returned by single-cluster-only operations on a sharded
// handle.
var ErrSharded = errors.New("core: operation requires single-cluster mode")

// ScaleOpts tunes DB.Scale.
type ScaleOpts struct {
	// Spec places replicas added on scale-out (zero value: a Small instance
	// in the provider's default zone, like cluster.AddSlave).
	Spec cluster.NodeSpec
	// Drain bounds how long a graceful scale-in waits for in-flight reads on
	// the departing replica (≤0 means 30 s). Ignored on immediate scale-in.
	Drain time.Duration
	// Victim pins the first replica removed on scale-in; nil removes the
	// most-lagged one.
	Victim *repl.Slave
}

// Scale is the unified elasticity surface: a positive delta adds replicas, a
// negative delta removes them. With a non-nil process the removal is
// graceful — the proxy stops routing new reads to the victim, in-flight
// reads drain (bounded by opts.Drain), and only then is the node detached —
// so a scale-in under load is invisible to clients. With p == nil removal is
// immediate: no new read is routed to the victim, but reads already in
// flight will fail against the dead instance and take the retry path.
func (db *DB) Scale(p *sim.Proc, delta int, opts ScaleOpts) error {
	if db.sc != nil {
		return db.scaleSharded(p, delta, opts)
	}
	for ; delta > 0; delta-- {
		if _, err := db.clu.AddSlave(opts.Spec); err != nil {
			return err
		}
	}
	var firstErr error
	for ; delta < 0; delta++ {
		victim := opts.Victim
		opts.Victim = nil // only the first removal is pinned
		if victim == nil {
			victim = db.mostLagged()
		}
		if victim == nil {
			return ErrNoSlaves
		}
		if p == nil {
			db.px.Quarantine(victim)
			db.clu.RemoveSlave(victim)
			db.px.Forget(victim)
			continue
		}
		if err := db.removeGraceful(p, victim, opts.Drain); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// scaleSharded spreads replica deltas across cells: scale-out lands each
// new replica on the cell with the fewest slaves (ties to the lowest id),
// scale-in removes the most-lagged replica from the cell with the most.
// The Victim pin is single-cluster only and ignored here.
func (db *DB) scaleSharded(p *sim.Proc, delta int, opts ScaleOpts) error {
	cells := db.sc.Cells()
	for ; delta > 0; delta-- {
		target := cells[0]
		for _, c := range cells[1:] {
			if len(c.Clu.Master().Slaves()) < len(target.Clu.Master().Slaves()) {
				target = c
			}
		}
		if _, err := target.Clu.AddSlave(opts.Spec); err != nil {
			return err
		}
	}
	var firstErr error
	for ; delta < 0; delta++ {
		var target *shard.Cell
		for _, c := range cells {
			if len(c.Clu.Master().Slaves()) == 0 {
				continue
			}
			if target == nil || len(c.Clu.Master().Slaves()) > len(target.Clu.Master().Slaves()) {
				target = c
			}
		}
		if target == nil {
			return ErrNoSlaves
		}
		victim := mostLaggedOf(target.Clu.Master().Slaves())
		if p == nil {
			target.Px.Quarantine(victim)
			target.Clu.RemoveSlave(victim)
			target.Px.Forget(victim)
			continue
		}
		if err := removeGracefulFrom(p, target.Px, target.Clu, victim, opts.Drain); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// SplitShard grows a sharded deployment by one cell online (copy, dual
// write, cutover); see shard.Cluster.Split. It fails on a single-cluster
// handle.
func (db *DB) SplitShard(p *sim.Proc) (*shard.SplitReport, error) {
	if db.sc == nil {
		return nil, errors.New("core: SplitShard requires a sharded handle (OpenSharded)")
	}
	return db.sc.Split(p)
}

// removeGraceful quarantines sl, waits for its in-flight reads to drain
// (bounded by drainTimeout; ≤0 means 30 s) and detaches it. On drain timeout
// the node is terminated anyway (in-flight reads on it will error and take
// the retry path) and an error reports the abandonment.
func (db *DB) removeGraceful(p *sim.Proc, sl *repl.Slave, drainTimeout time.Duration) error {
	return removeGracefulFrom(p, db.px, db.clu, sl, drainTimeout)
}

// removeGracefulFrom is removeGraceful against an explicit proxy/cluster
// pair, shared by the single-cluster and per-cell scale-in paths.
func removeGracefulFrom(p *sim.Proc, px *proxy.Proxy, clu *cluster.Cluster, sl *repl.Slave, drainTimeout time.Duration) error {
	if drainTimeout <= 0 {
		drainTimeout = 30 * time.Second
	}
	px.Quarantine(sl)
	deadline := p.Now() + drainTimeout
	for px.InflightReads(sl) > 0 && p.Now() < deadline {
		p.Sleep(10 * time.Millisecond)
	}
	abandoned := px.InflightReads(sl)
	clu.RemoveSlave(sl)
	px.Forget(sl)
	if abandoned > 0 {
		return fmt.Errorf("core: scale-in of %s abandoned %d in-flight read(s) after %v",
			sl.Srv.Name, abandoned, drainTimeout)
	}
	return nil
}

// mostLagged returns the attached replica furthest behind the master (nil
// when none is attached).
func (db *DB) mostLagged() *repl.Slave {
	return mostLaggedOf(db.clu.Master().Slaves())
}

func mostLaggedOf(slaves []*repl.Slave) *repl.Slave {
	if len(slaves) == 0 {
		return nil
	}
	worst := slaves[0]
	for _, sl := range slaves[1:] {
		if sl.EventsBehindMaster() > worst.EventsBehindMaster() {
			worst = sl
		}
	}
	return worst
}

// Failover promotes a slave after a master failure and re-points the proxy.
// On a sharded handle it returns ErrSharded: each cell fails over on its
// own through the per-cell retry policy (Retry.FailoverOnMasterDown).
func (db *DB) Failover() error {
	if db.sc != nil {
		return fmt.Errorf("%w: per-cell failover is driven by the retry policy", ErrSharded)
	}
	m, err := db.clu.Failover()
	if err != nil {
		return err
	}
	db.px.SetMaster(m)
	return nil
}

// WaitCaughtUp blocks until every slave (of every cell, in sharded mode)
// has applied its master's current binlog position or the timeout elapses;
// it reports success.
func (db *DB) WaitCaughtUp(p *sim.Proc, timeout time.Duration) bool {
	deadline := p.Now() + timeout
	var masters []*repl.Master
	if db.sc == nil {
		masters = []*repl.Master{db.clu.Master()}
	} else {
		for _, cell := range db.sc.Cells() {
			masters = append(masters, cell.Clu.Master())
		}
	}
	targets := make([]uint64, len(masters))
	for i, m := range masters {
		targets[i] = m.Srv.Log.LastSeq()
	}
	for {
		ok := true
		for i, m := range masters {
			for _, sl := range m.Slaves() {
				if sl.AppliedSeq() < targets[i] {
					ok = false
					break
				}
			}
		}
		if ok {
			return true
		}
		if p.Now() >= deadline {
			return false
		}
		p.Sleep(50 * time.Millisecond)
	}
}

// InstanceReport is one node's validation result.
type InstanceReport struct {
	Name     string
	Place    cloud.Placement
	CPUModel string
	Speed    float64
}

// ValidateInstances measures the effective CPU speed of every node in the
// cluster — the paper's §IV-A advice to validate instance performance
// before accepting a deployment, since a slow physical host visibly caps
// end-to-end throughput. Run it before opening the tier to traffic: the
// probe competes with client load otherwise.
func (db *DB) ValidateInstances(p *sim.Proc, probes int) []InstanceReport {
	var out []InstanceReport
	report := func(name string, inst *cloud.Instance) {
		out = append(out, InstanceReport{
			Name:     name,
			Place:    inst.Place,
			CPUModel: inst.CPUModel.Name,
			Speed:    cloud.MeasureSpeed(p, inst, probes),
		})
	}
	if db.sc == nil {
		report(db.clu.Master().Srv.Name, db.clu.Master().Srv.Inst)
	} else {
		for _, cell := range db.sc.Cells() {
			report(cell.Clu.Master().Srv.Name, cell.Clu.Master().Srv.Inst)
		}
	}
	for _, sl := range db.allSlaves() {
		report(sl.Srv.Name, sl.Srv.Inst)
	}
	return out
}

// Stats aggregates the handle's middleware counters. In sharded mode Proxy
// sums every cell's proxy, Repl stays zero (per-cell replication counters
// live in the metrics registry under "shard.cell<i>.repl.*") and Shard
// carries the router counters.
type Stats struct {
	Proxy proxy.Stats
	Pool  pool.Stats
	Repl  repl.Stats
	Shard shard.Stats
}

// Stats returns a snapshot of proxy routing, pool activity and replication
// pipeline counters.
func (db *DB) Stats() Stats {
	if db.sc != nil {
		var px proxy.Stats
		for _, cell := range db.sc.Cells() {
			px = sumProxyStats(px, cell.Px.Stats())
		}
		return Stats{Proxy: px, Pool: db.pool.Stats(), Shard: db.sc.Stats()}
	}
	return Stats{Proxy: db.px.Stats(), Pool: db.pool.Stats(), Repl: db.clu.Master().Stats()}
}

// sumProxyStats adds two proxy counter snapshots field by field.
func sumProxyStats(a, b proxy.Stats) proxy.Stats {
	a.Reads += b.Reads
	a.Writes += b.Writes
	a.MasterFallbacks += b.MasterFallbacks
	a.Errors += b.Errors
	a.Retries += b.Retries
	a.Timeouts += b.Timeouts
	a.SlaveEvictions += b.SlaveEvictions
	a.SlaveReadmissions += b.SlaveReadmissions
	a.Failovers += b.Failovers
	a.DegradedCommits += b.DegradedCommits
	a.WrongShard += b.WrongShard
	a.EventualReads += b.EventualReads
	a.BoundedReads += b.BoundedReads
	a.SessionReads += b.SessionReads
	a.StrongReads += b.StrongReads
	a.EpochFallbacks += b.EpochFallbacks
	a.StaleEventsObserved += b.StaleEventsObserved
	a.RYWChecked += b.RYWChecked
	a.RYWCompliant += b.RYWCompliant
	return a
}

// Metrics publishes every attached component's counters into the registry
// and returns the flattened snapshot (name → value) that the bench JSON
// output embeds. Proxy, pool and replication metrics are published here
// (per cell, namespaced "shard.cell<i>.", in sharded mode); external
// publishers (chaos, elastic) share the same registry via Registry().
func (db *DB) Metrics() map[string]float64 {
	if db.sc != nil {
		db.sc.PublishMetrics(db.reg)
		db.pool.PublishMetrics(db.reg)
		db.reg.Gauge("repl.max_events_behind").Set(float64(db.Staleness().MaxEvents))
		db.publishEngineGC()
		return db.reg.Snapshot()
	}
	db.px.PublishMetrics(db.reg)
	db.pool.PublishMetrics(db.reg)
	db.clu.Master().PublishMetrics(db.reg)
	db.reg.Gauge("repl.max_events_behind").Set(float64(db.Staleness().MaxEvents))
	db.publishEngineGC()
	return db.reg.Snapshot()
}

// publishEngineGC sums MVCC version-chain GC counters over every engine in
// the deployment (masters and slaves, all cells) into "sqlengine.gc.*" —
// the evidence that chain memory is being reclaimed, not accreted.
func (db *DB) publishEngineGC() {
	if db.reg == nil {
		return
	}
	var runs, versions, rows uint64
	add := func(m *repl.Master) {
		r, v, w := m.Srv.Eng.GCStats()
		runs, versions, rows = runs+r, versions+v, rows+w
		for _, sl := range m.Slaves() {
			r, v, w := sl.Srv.Eng.GCStats()
			runs, versions, rows = runs+r, versions+v, rows+w
		}
	}
	if db.sc == nil {
		add(db.clu.Master())
	} else {
		for _, cell := range db.sc.Cells() {
			add(cell.Clu.Master())
		}
	}
	db.reg.Counter("sqlengine.gc.runs").Set(float64(runs))
	db.reg.Counter("sqlengine.gc.versions_pruned").Set(float64(versions))
	db.reg.Counter("sqlengine.gc.rows_pruned").Set(float64(rows))
}

// Close shuts the connection pool; the cluster keeps running (databases
// outlive application handles).
func (db *DB) Close() { db.pool.Close() }
