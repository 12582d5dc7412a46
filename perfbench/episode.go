package main

import (
	"fmt"
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/cloudstone"
	"cloudrepl/internal/cluster"
	"cloudrepl/internal/core"
	"cloudrepl/internal/heartbeat"
	"cloudrepl/internal/metrics"
	"cloudrepl/internal/obs"
	"cloudrepl/internal/pool"
	"cloudrepl/internal/repl"
	"cloudrepl/internal/server"
	"cloudrepl/internal/shard"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/vclock"
)

// The run protocol: the paper's three phases, shortened to the 2/5/1-minute
// protocol of `cloudrepl-bench -short`. Tables grow during a run and the
// home-page scan grows with them, so a longer steady window moves the
// bottleneck; the user counts below were sized for this length.
const (
	rampUp       = 2 * time.Minute
	steadyLen    = 5 * time.Minute
	rampDown     = time.Minute
	drainTimeout = 30 * time.Minute
	sampleEvery  = 5 * time.Second
)

// The paper's master and client tier live in us-west-1a; every replica in
// these workloads is in the same zone.
var (
	masterPlace = cloud.Placement{Region: cloud.USWest1, Zone: "a"}
	slavePlace  = cloud.Placement{Region: cloud.USWest1, Zone: "a"}
)

// episodeOpts selects the optional instruments of one simulated run.
type episodeOpts struct {
	traced  bool        // record the program's sim-clock spans
	replay  bool        // time a replay of every master's binlog
	profile *profileAcc // CPU-profile the run and drain into this accumulator
	log     *spanLog    // the benchmark's own host-clock spans
	parent  int         // span the episode's spans nest under
}

// simStats holds every number of one run on the simulated clock. For one
// seed they must be identical from run to run, traced or not.
type simStats struct {
	SteadyOps, SteadyErrors int
	AllOps, AllErrors       int
	LatP50Ms, LatP99Ms      float64
	LatN                    int
	DelayP95Ms              float64
	Events                  uint64

	MasterUtil, SlaveUtilMax       float64 // steady window
	MasterUtilEnd, SlaveUtilEndMax float64 // last minute of steady state
	MasterCPUMsPerOp               float64
	SlaveCPUMsPerOp                float64
	PoolWaitsPerOp                 float64
	MasterReadShare                float64
	BinlogBytesPerWrite            float64
	BacklogEnd, BacklogGrowth      float64

	Shard           shard.Stats
	ShardSingleP99  float64
	ShardScatterP99 float64
	AuditQueries    int
	AuditWrong      int

	Digest string // row digests of every master
}

// hostStats holds one run's numbers on the host clock.
type hostStats struct {
	SetupS      float64
	RunS        float64 // run plus drain
	UsPerOp     float64
	AllocsPerOp float64
	PeakHeapMB  float64
	NsPerEvent  float64

	ReplayNsPerStmt     float64
	ReplayAllocsPerStmt float64
}

type episode struct {
	seed   int64
	sim    simStats
	host   hostStats
	delays []float64  // heartbeat delays behind sim.DelayP95Ms, in ms
	spans  *spanStats // traced runs only
}

// stack is one built deployment: a single cluster or a set of shard cells,
// behind one core.DB handle.
type stack struct {
	env     *sim.Env
	db      *core.DB
	masters []*repl.Master
	hbs     []*heartbeat.Plugin
	driver  *cloudstone.Driver
	tracer  *obs.Tracer
}

// slaves lists every replica of every master.
func (s *stack) slaves() []*repl.Slave {
	var out []*repl.Slave
	for _, m := range s.masters {
		out = append(out, m.Slaves()...)
	}
	return out
}

// build constructs the whole stack through the public constructors and
// starts the load; it returns once the first user is scheduled.
func build(w workload, seed int64, traced bool) (*stack, error) {
	env := sim.NewEnv(seed)
	s := &stack{env: env}
	if traced {
		// The tracer draws its ID seed from the env it is given. A
		// throwaway env keeps this run's random stream untouched, so a
		// traced run simulates exactly the history of an untraced one.
		s.tracer = obs.NewTracer(sim.NewEnv(seed))
	}
	cloudCfg := cloud.DefaultConfig()
	cloudCfg.CPUCoV = 0 // homogeneous VMs: results reflect topology, not luck
	cl := cloud.New(env, cloudCfg)

	slaveSpecs := make([]cluster.NodeSpec, w.slaves)
	for i := range slaveSpecs {
		slaveSpecs[i] = cluster.NodeSpec{Place: slavePlace}
	}
	cellCfg := cluster.Config{
		Mode:   repl.Async,
		Cost:   server.DefaultCostModel(),
		Master: cluster.NodeSpec{Place: masterPlace},
		Slaves: slaveSpecs,
	}
	opts := []core.Option{
		core.WithDatabase(cloudstone.DatabaseName),
		core.WithClientPlace(masterPlace),
		core.WithPool(pool.Config{MaxActive: w.users + 8, MaxIdle: w.users + 8}),
	}
	if s.tracer != nil {
		opts = append(opts, core.WithTracer(s.tracer))
	}
	if w.cells == 0 {
		cellCfg.Preload = withHeartbeat(cloudstone.Preload(w.scale))
		clu, err := cluster.New(env, cl, cellCfg)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		s.db = core.Open(clu, opts...)
		s.masters = []*repl.Master{clu.Master()}
	} else {
		opts = append(opts,
			core.WithShards(w.cells),
			core.WithKeyspace(cloudstone.ShardKeyspace()),
			core.WithPartitionedPreload(func(owns func(string, int64) bool) func(*server.DBServer) error {
				return withHeartbeat(cloudstone.PreloadOwned(w.scale, owns))
			}))
		db, err := core.OpenSharded(env, cl, cellCfg, opts...)
		if err != nil {
			return nil, fmt.Errorf("shards: %w", err)
		}
		s.db = db
		for _, cell := range db.Shards().Cells() {
			s.masters = append(s.masters, cell.Clu.Master())
		}
	}

	// Every instance disciplines its clock with NTP, as in the paper.
	for _, inst := range cl.Instances() {
		bias := time.Duration(env.Rand().NormFloat64() * float64(1650*time.Microsecond))
		vclock.StartDaemon(env, inst.Name+"/ntp", inst.Clock, vclock.NTPConfig{
			Interval: time.Second, Bias: bias, JitterSigma: 600 * time.Microsecond, Servers: 4,
		})
	}
	for _, m := range s.masters {
		s.hbs = append(s.hbs, heartbeat.Start(env, m, time.Second))
	}
	s.driver = cloudstone.NewDriver(s.db, cloudstone.Config{
		Scale: w.scale, ReadRatio: w.readRatio, Users: w.users,
		RampUp: rampUp, Steady: steadyLen, RampDown: rampDown,
		CrossShard: w.crossShard,
	})
	s.driver.Start(env)
	return s, nil
}

// withHeartbeat adds the heartbeat table to a Cloudstone preload.
func withHeartbeat(load func(*server.DBServer) error) func(*server.DBServer) error {
	return func(srv *server.DBServer) error {
		if err := load(srv); err != nil {
			return err
		}
		return heartbeat.Preload(srv)
	}
}

// cpuSnap is the cumulative busy time of every master and slave CPU at one
// virtual instant.
type cpuSnap struct {
	at             sim.Time
	master, slaves []float64 // busy core-seconds
}

func (s *stack) snapCPU() cpuSnap {
	c := cpuSnap{at: s.env.Now()}
	for _, m := range s.masters {
		c.master = append(c.master, m.Srv.Inst.CPU.BusySeconds())
	}
	for _, sl := range s.slaves() {
		c.slaves = append(c.slaves, sl.Srv.Inst.CPU.BusySeconds())
	}
	return c
}

// utilBetween returns the highest master and slave utilization between two
// snapshots, and the summed busy seconds of each role.
func (s *stack) utilBetween(a, b cpuSnap) (masterMax, slaveMax, masterBusy, slaveBusy float64) {
	secs := (b.at - a.at).Seconds()
	for i, m := range s.masters {
		busy := b.master[i] - a.master[i]
		masterBusy += busy
		masterMax = math.Max(masterMax, busy/(secs*float64(m.Srv.Inst.CPU.Cap())))
	}
	for i, sl := range s.slaves() {
		busy := b.slaves[i] - a.slaves[i]
		slaveBusy += busy
		slaveMax = math.Max(slaveMax, busy/(secs*float64(sl.Srv.Inst.CPU.Cap())))
	}
	return
}

// runEpisode builds one stack for seed, runs the closed-loop load to the
// end of ramp-down, drains replication and checks the outcome.
//
//cloudrepl:allow-simtime the benchmark times set-up and each simulated run on the host clock; the simulation itself never reads it
func runEpisode(w workload, seed int64, o episodeOpts) (*episode, error) {
	runtime.GC() // every run starts from the same heap
	ep := &episode{seed: seed}
	epSpan := o.log.start("episode", o.parent)
	defer o.log.end(epSpan)

	setupSpan := o.log.start("setup", epSpan)
	setupStart := time.Now()
	s, err := build(w, seed, o.traced)
	if err != nil {
		return nil, err
	}
	ep.host.SetupS = time.Since(setupStart).Seconds()
	o.log.end(setupSpan)
	env := s.env
	defer env.Shutdown()

	from, to := s.driver.SteadyWindow()
	var snapFrom, snapLastMin, snapTo cpuSnap
	env.Schedule(from-env.Now(), func() { snapFrom = s.snapCPU() })
	env.Schedule(to-time.Minute-env.Now(), func() { snapLastMin = s.snapCPU() })
	env.Schedule(to-env.Now(), func() { snapTo = s.snapCPU() })

	// Per-slave replication backlog, sampled through the steady window.
	backlog := make([][]float64, len(s.slaves()))
	env.Go("bench/backlog", func(p *sim.Proc) {
		p.SleepUntil(from)
		for p.Now() <= to {
			for i, sl := range s.slaves() {
				backlog[i] = append(backlog[i], float64(sl.EventsBehindMaster()))
			}
			p.Sleep(sampleEvery)
		}
	})

	seq0, bytes0 := s.logTotals()
	events0 := env.Events()
	allocs0 := heapAllocs()
	runSpan := o.log.start("run", epSpan)
	if o.profile != nil {
		if err := o.profile.start(); err != nil {
			return nil, err
		}
	}
	heap := startHeapSampler()
	runStart := time.Now()

	env.RunUntil(env.Now() + rampUp + steadyLen + rampDown)
	for _, hb := range s.hbs {
		hb.Stop()
	}
	o.log.end(runSpan)
	drainSpan := o.log.start("drain", epSpan)
	drained := s.drain()
	ep.host.RunS = time.Since(runStart).Seconds()
	if o.profile != nil {
		err = o.profile.stop()
	}
	ep.host.PeakHeapMB = float64(heap.stop()) / (1 << 20)
	allocs := heapAllocs() - allocs0
	o.log.end(drainSpan)
	if err != nil {
		return nil, err
	}
	if !drained {
		return nil, fmt.Errorf("replicas did not catch up within %v after the load ended", drainTimeout)
	}

	st := &ep.sim
	res := s.driver.Result()
	st.SteadyOps, st.SteadyErrors = res.Reads+res.Writes, res.Errors
	st.AllOps, st.AllErrors = s.driver.CompletedOps(), s.driver.TotalErrors()
	st.LatP50Ms, st.LatP99Ms, st.LatN = res.Latency.Median, res.Latency.P99, res.Latency.N
	st.Events = env.Events() - events0
	if st.AllOps == 0 || st.SteadyOps == 0 {
		return nil, fmt.Errorf("no operation completed")
	}
	ops := float64(st.AllOps)
	ep.host.UsPerOp = ep.host.RunS * 1e6 / ops
	ep.host.AllocsPerOp = float64(allocs) / ops
	ep.host.NsPerEvent = ep.host.RunS * 1e9 / float64(st.Events)

	var masterBusy, slaveBusy float64
	st.MasterUtil, st.SlaveUtilMax, masterBusy, slaveBusy = s.utilBetween(snapFrom, snapTo)
	st.MasterUtilEnd, st.SlaveUtilEndMax, _, _ = s.utilBetween(snapLastMin, snapTo)
	st.MasterCPUMsPerOp = masterBusy * 1000 / float64(st.SteadyOps)
	st.SlaveCPUMsPerOp = slaveBusy * 1000 / float64(st.SteadyOps)
	st.PoolWaitsPerOp = float64(s.db.Pool().Stats().Waits) / ops
	for _, xs := range backlog {
		st.BacklogEnd = math.Max(st.BacklogEnd, xs[len(xs)-1])
	}
	st.BacklogGrowth = backlogGrowth(backlog)
	seq1, bytes1 := s.logTotals()
	if seq1 > seq0 {
		st.BinlogBytesPerWrite = float64(bytes1-bytes0) / float64(seq1-seq0)
	}
	var masterReads, reads uint64
	for _, m := range s.masters {
		masterReads += m.Srv.Stats().Reads
		reads += m.Srv.Stats().Reads
	}
	for _, sl := range s.slaves() {
		reads += sl.Srv.Stats().Reads
	}
	if reads > 0 {
		st.MasterReadShare = float64(masterReads) / float64(reads)
	}
	if ep.delays, err = s.steadyDelays(from, to); err != nil {
		return nil, err
	}
	st.DelayP95Ms = metrics.Quantile(ep.delays, 0.95)
	if sc := s.db.Shards(); sc != nil {
		st.Shard = sc.Stats()
		st.ShardSingleP99 = metrics.Quantile(sc.SingleLatency().Float64s(), 0.99)
		st.ShardScatterP99 = metrics.Quantile(sc.ScatterLatency().Float64s(), 0.99)
	}
	if s.tracer != nil {
		ep.spans = analyzeSpans(s.tracer.Spans(), from, to, st.SteadyOps)
	}

	verifySpan := o.log.start("verify", epSpan)
	st.Digest, err = s.verifyReplicas()
	o.log.end(verifySpan)
	if err != nil {
		return nil, err
	}
	if o.replay {
		replaySpan := o.log.start("replay", epSpan)
		ep.host.ReplayNsPerStmt, ep.host.ReplayAllocsPerStmt, err = s.replayMasters()
		o.log.end(replaySpan)
		if err != nil {
			return nil, err
		}
	}
	if s.db.Shards() != nil {
		auditSpan := o.log.start("audit", epSpan)
		st.AuditQueries, st.AuditWrong, err = s.audit(w)
		o.log.end(auditSpan)
		if err != nil {
			return nil, err
		}
	}
	return ep, nil
}

// drain lets replication finish after the load ends: it waits until every
// replica has applied its master's whole binlog, and repeats while a write
// that was in flight at the end still lands.
func (s *stack) drain() bool {
	ok := false
	s.env.Go("bench/drain", func(p *sim.Proc) {
		for {
			before, _ := s.logTotals()
			if !s.db.WaitCaughtUp(p, drainTimeout) {
				break
			}
			if after, _ := s.logTotals(); after == before {
				ok = true
				break
			}
		}
		s.env.Stop()
	})
	s.env.RunUntil(s.env.Now() + 2*drainTimeout)
	return ok
}

// logTotals sums binlog length and bytes over every master.
func (s *stack) logTotals() (entries uint64, bytes int64) {
	for _, m := range s.masters {
		entries += m.Srv.Log.LastSeq()
		bytes += m.Srv.Log.Bytes()
	}
	return
}

// steadyDelays pools every slave's heartbeat delays, in ms, for the
// heartbeats its master wrote in the steady window; a heartbeat a slave
// never applied counts at the worst delay observed.
func (s *stack) steadyDelays(from, to sim.Time) ([]float64, error) {
	var pooled []float64
	for i, m := range s.masters {
		ids := s.hbs[i].IDsInWindow(from, to)
		if len(ids) == 0 {
			return nil, fmt.Errorf("no heartbeat in the steady window of %s", m.Srv.Name)
		}
		for _, sl := range m.Slaves() {
			d, err := heartbeat.PaddedDelays(m, sl, ids)
			if err != nil {
				return nil, fmt.Errorf("heartbeat delays of %s: %w", sl.Srv.Name, err)
			}
			pooled = append(pooled, d...)
		}
	}
	return pooled, nil
}

// backlogGrowth compares each slave's mean backlog over the last minute of
// steady state with its first minute and returns the largest increase.
func backlogGrowth(series [][]float64) float64 {
	n := int(time.Minute / sampleEvery)
	growth := math.Inf(-1)
	for _, xs := range series {
		if len(xs) >= 2*n {
			growth = math.Max(growth, mean(xs[len(xs)-n:])-mean(xs[:n]))
		}
	}
	if math.IsInf(growth, -1) {
		return 0
	}
	return growth
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// heapAllocs is the process's cumulative count of heap allocations.
func heapAllocs() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler polls the bytes held in heap objects on a host timer and
// keeps the peak.
type heapSampler struct {
	quit, done chan struct{}
	peak       uint64
}

// startHeapSampler starts polling on a host timer. It runs beside the
// simulation, never inside it, and stop waits for it to exit.
//
//cloudrepl:allow-rawgo the sampler reads the Go heap on the host clock, outside the simulation
//cloudrepl:allow-simtime the sampler polls on a host-clock ticker, outside the simulation
func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			rtmetrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampler, waits for it and returns the peak.
func (h *heapSampler) stop() uint64 {
	close(h.quit)
	<-h.done
	return h.peak
}
