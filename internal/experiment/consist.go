package experiment

import (
	"fmt"
	"strings"

	"cloudrepl/internal/proxy"
	"cloudrepl/internal/repl"
)

// ConsistArmResult is one consistency tier measured on the shared A-CONSIST
// grid: the Cloudstone mix at a fixed user population, with the proxy
// enforcing that tier for every read.
type ConsistArmResult struct {
	Tier      string
	Users     int
	Slaves    int
	ReadRatio float64

	Throughput      float64
	ReadThroughput  float64
	WriteThroughput float64
	Errors          int
	LatencyMsMean   float64
	AvgDelayMs      float64

	// MasterReadSharePct is the fraction of reads the master served — the
	// capacity price of the tier (Strong pushes it to 100%, Session and
	// Bounded pay it only when no slave qualifies).
	MasterReadSharePct float64
	// AvgStaleEvents is the mean binlog events the serving backend was
	// behind the master at read time — observed staleness, not the bound.
	AvgStaleEvents float64
	// RYWCompliancePct is the share of token-carrying reads whose backend
	// had applied the connection's newest write. Measured identically in
	// every tier, so Eventual's drift and Session's guarantee land on the
	// same scale.
	RYWCompliancePct float64
	EpochFallbacks   uint64

	Stats   proxy.Stats
	Metrics map[string]float64
}

// ConsistencyResult is the A-CONSIST ablation output.
type ConsistencyResult struct {
	Users     int
	Slaves    int
	ReadRatio float64
	Arms      []ConsistArmResult
}

// consistGrid is the shared parameter point every tier runs on: read-heavy
// enough that pinning all reads to the master (Strong) costs real
// throughput, loaded enough that the slaves visibly lag (so Eventual's
// compliance drifts below Session's).
type consistGrid struct {
	users, slaves, scale int
	readRatio            float64
}

func defaultConsistGrid() consistGrid {
	return consistGrid{users: 300, slaves: 2, scale: 300, readRatio: 0.8}
}

// consistTiers is the sweep order, weakest to strongest.
var consistTiers = []proxy.Consistency{proxy.Eventual, proxy.Bounded, proxy.Session, proxy.Strong}

// AblationConsistency measures the consistency spectrum the paper's
// eventual-only proxy collapses to one point: the same Cloudstone grid under
// each of the four read tiers. The interesting trade is throughput against
// observed staleness and read-your-writes compliance — Strong buys zero
// staleness at master-capacity cost, Session buys exactly its own writes
// back for a master fallback only when the slaves lag, Bounded caps
// staleness without per-session bookkeeping, Eventual is the paper's
// configuration.
func AblationConsistency(opts SweepOpts) (ConsistencyResult, error) {
	g := defaultConsistGrid()
	out := ConsistencyResult{Users: g.users, Slaves: g.slaves, ReadRatio: g.readRatio}
	for _, tier := range consistTiers {
		arm, err := runConsistArm(opts, g, tier)
		if err != nil {
			return out, err
		}
		out.Arms = append(out.Arms, arm)
		opts.progressf("consist %-8s %4d users  tp=%7.2f ops/s  master-reads=%5.1f%%  stale=%6.2f ev  ryw=%6.2f%%  err=%d",
			arm.Tier, arm.Users, arm.Throughput, arm.MasterReadSharePct,
			arm.AvgStaleEvents, arm.RYWCompliancePct, arm.Errors)
	}
	return out, nil
}

// runConsistArm executes one tier on its own virtual timeline. Every arm
// shares one seed so the workload arrival pattern is identical across tiers
// and the comparison is paired.
func runConsistArm(opts SweepOpts, g consistGrid, tier proxy.Consistency) (ConsistArmResult, error) {
	ramp, steady, down := opts.phases()
	res, err := Run(RunSpec{
		Seed: opts.Seed, Users: g.users, Slaves: g.slaves, Scale: g.scale,
		ReadRatio: g.readRatio, Loc: SameZone, Mode: repl.Async,
		Consistency: tier,
		RampUp:      ramp, Steady: steady, RampDown: down,
	})
	if err != nil {
		return ConsistArmResult{}, fmt.Errorf("consist arm %s: %w", tier, err)
	}
	st := res.ProxyStats
	arm := ConsistArmResult{
		Tier: tier.String(), Users: g.users, Slaves: g.slaves, ReadRatio: g.readRatio,
		Throughput: res.Throughput, ReadThroughput: res.ReadThroughput,
		WriteThroughput: res.WriteThroughput, Errors: res.Errors,
		LatencyMsMean: res.LatencyMsMean, AvgDelayMs: res.AvgDelayMs,
		EpochFallbacks: st.EpochFallbacks,
		Stats:          st, Metrics: res.Metrics,
	}
	if st.Reads > 0 {
		arm.MasterReadSharePct = 100 * float64(st.MasterFallbacks) / float64(st.Reads)
		arm.AvgStaleEvents = float64(st.StaleEventsObserved) / float64(st.Reads)
	}
	if st.RYWChecked > 0 {
		arm.RYWCompliancePct = 100 * float64(st.RYWCompliant) / float64(st.RYWChecked)
	}
	return arm, nil
}

// consistArm is the A-CONSIST determinism arm: the Session tier, the most
// stateful one (token minting, epoch checks, per-slave watermark
// filtering, and the MVCC version stamps underneath). Commit-version
// streams are covered too, since AvgDelayMs and the staleness counters are
// derived from them.
func consistArm(opts SweepOpts) (any, error) {
	g := defaultConsistGrid()
	if opts.Short {
		g.users = 150
	}
	return runConsistArm(opts, g, proxy.Session)
}

// renderConsistency formats the A-CONSIST ablation for the terminal.
func renderConsistency(r ConsistencyResult) string {
	var b strings.Builder
	b.WriteString("A-CONSIST — read-consistency tiers on one Cloudstone grid\n")
	fmt.Fprintf(&b, "%d users, %d slaves, %.0f/%.0f read/write mix, same-zone async replication\n\n",
		r.Users, r.Slaves, 100*r.ReadRatio, 100*(1-r.ReadRatio))
	fmt.Fprintf(&b, "%-9s %11s %9s %13s %12s %10s %6s\n",
		"tier", "tp (ops/s)", "lat (ms)", "master reads", "stale (ev)", "ryw", "errs")
	for _, a := range r.Arms {
		fmt.Fprintf(&b, "%-9s %11.2f %9.2f %12.1f%% %12.2f %9.2f%% %6d\n",
			a.Tier, a.Throughput, a.LatencyMsMean, a.MasterReadSharePct,
			a.AvgStaleEvents, a.RYWCompliancePct, a.Errors)
	}
	b.WriteString("\neventual reads any slave and inherits its lag; bounded caps the lag a\n")
	b.WriteString("serving slave may carry; session filters to slaves that have applied\n")
	b.WriteString("the connection's own newest write (token epoch guards failover); strong\n")
	b.WriteString("pins every read to the master. throughput falls as the tier tightens\n")
	b.WriteString("because qualifying backends get scarcer — strong degenerates to the\n")
	b.WriteString("single-master ceiling the read-scaling paper set out to escape, which\n")
	b.WriteString("is exactly the price of linearizable reads in this architecture.\n")
	return b.String()
}

// consistencyJSON shapes the ablation for BENCH_consist.json.
func consistencyJSON(r ConsistencyResult) any {
	type arm struct {
		Tier               string  `json:"tier"`
		Throughput         float64 `json:"throughput_ops_s"`
		ReadThroughput     float64 `json:"read_throughput_ops_s"`
		WriteThroughput    float64 `json:"write_throughput_ops_s"`
		Errors             int     `json:"errors"`
		LatencyMsMean      float64 `json:"latency_ms_mean"`
		AvgDelayMs         float64 `json:"delay_ms"`
		MasterReadSharePct float64 `json:"master_read_share_pct"`
		AvgStaleEvents     float64 `json:"avg_stale_events"`
		RYWCompliancePct   float64 `json:"ryw_compliance_pct"`
		EpochFallbacks     uint64  `json:"epoch_fallbacks"`
		TierReads          uint64  `json:"tier_reads"`
	}
	arms := []arm{}
	for _, a := range r.Arms {
		tierReads := a.Stats.EventualReads + a.Stats.BoundedReads + a.Stats.SessionReads + a.Stats.StrongReads
		arms = append(arms, arm{
			Tier: a.Tier, Throughput: a.Throughput,
			ReadThroughput: a.ReadThroughput, WriteThroughput: a.WriteThroughput,
			Errors: a.Errors, LatencyMsMean: a.LatencyMsMean, AvgDelayMs: a.AvgDelayMs,
			MasterReadSharePct: a.MasterReadSharePct, AvgStaleEvents: a.AvgStaleEvents,
			RYWCompliancePct: a.RYWCompliancePct, EpochFallbacks: a.EpochFallbacks,
			TierReads: tierReads,
		})
	}
	return map[string]any{
		"users":      r.Users,
		"slaves":     r.Slaves,
		"read_ratio": r.ReadRatio,
		"arms":       arms,
	}
}
