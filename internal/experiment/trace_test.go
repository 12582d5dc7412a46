package experiment

import (
	"bytes"
	"sort"
	"testing"

	"cloudrepl/internal/obs"
)

// TestTraceDeterminism runs the registry's A-TRACE arm — the traced
// pipeline point — twice with one seed. The check byte-compares the JSON of
// trace and metrics snapshot together; on top of that the exported trace
// files themselves must be byte-identical (the -trace acceptance criterion:
// span IDs, timestamps and ordering identical run to run), non-empty, and
// the metrics snapshots must agree key by key.
func TestTraceDeterminism(t *testing.T) {
	arm := registryArm(t, "A-TRACE")
	opts := SweepOpts{Seed: 5}
	var runs []tracePayload
	err := CheckDeterminism(arm.Name, func() (any, error) {
		v, err := arm.Run(opts)
		if err != nil {
			return nil, err
		}
		runs = append(runs, v.(tracePayload))
		return v, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := runs[0], runs[1]
	if len(r1.Trace) == 0 {
		t.Fatal("traced run produced no trace")
	}
	if !bytes.Equal(r1.Trace, r2.Trace) {
		t.Fatalf("same-seed trace files differ\n%s", firstDivergence(r1.Trace, r2.Trace))
	}

	var keys []string
	for k := range r1.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if r1.Metrics[k] != r2.Metrics[k] {
			t.Errorf("metric %s differs across same-seed runs: %v vs %v", k, r1.Metrics[k], r2.Metrics[k])
		}
	}
	if len(r2.Metrics) != len(r1.Metrics) {
		t.Errorf("metric sets differ in size: %d vs %d", len(r1.Metrics), len(r2.Metrics))
	}
}

// TestTraceCoversWholePipeline parses a traced run and checks the tentpole
// invariant: every pipeline stage produced spans, and at least one write's
// causal chain — client call, pool checkout, proxy routing, server commit,
// binlog, slave apply — is linked into a single trace.
func TestTraceCoversWholePipeline(t *testing.T) {
	r, err := TraceRun(SweepOpts{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	spans, err := obs.ParseTrace(r.TraceJSON)
	if err != nil {
		t.Fatal(err)
	}
	byStage := map[string]int{}
	for _, sp := range spans {
		byStage[sp.Stage]++
	}
	for _, st := range obs.Stages {
		if byStage[st] == 0 {
			t.Errorf("no spans for stage %q", st)
		}
	}
	trace, ok := obs.FullTrace(spans)
	if !ok {
		t.Fatal("no single trace covers the whole pipeline")
	}
	inTrace := map[string]int{}
	roots := 0
	for _, sp := range spans {
		if sp.Trace != trace {
			continue
		}
		inTrace[sp.Stage]++
		if sp.Parent == 0 {
			roots++
		}
	}
	for _, st := range obs.Stages {
		if inTrace[st] == 0 {
			t.Errorf("full trace lacks stage %q: %v", st, inTrace)
		}
	}
	if roots != 1 {
		t.Errorf("full trace has %d roots, want exactly the client span", roots)
	}
	if len(obs.CriticalPath(spans, trace)) < 3 {
		t.Error("critical path shorter than client→proxy→server")
	}

	// The registry snapshot rode along: client latency and replication
	// counters must be populated for a loaded run.
	for _, key := range []string{"client.exec.count", "proxy.writes", "pool.borrows", "repl.entries_shipped"} {
		if r.Metrics[key] == 0 {
			t.Errorf("metric %s = 0 after a loaded traced run", key)
		}
	}
}
