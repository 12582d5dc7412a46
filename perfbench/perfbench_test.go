package main

import (
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"cloudrepl/internal/obs"
)

// TestMetricsMatchBenchmarkJSON keeps the program's metric names, units and
// directions in step with the benchmark definition at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var b struct {
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	ep := &episode{sim: simStats{SteadyOps: 1, AllOps: 1, Events: 1}, host: hostStats{RunS: 1},
		spans: &spanStats{selfMsPerOp: map[string]float64{}, durMs: map[string][]float64{}}}
	check := func(kind string, want []def, got []metric) {
		emitted := map[string]metric{}
		for _, m := range got {
			if reported(m.name) {
				emitted[m.name] = m
			}
		}
		if len(emitted) != len(want) {
			t.Errorf("%s: program reports %d metrics, BENCHMARK.json lists %d", kind, len(emitted), len(want))
		}
		for _, d := range want {
			m, ok := emitted[d.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s is not reported", kind, d.Name)
			case m.unit != d.Unit || m.better != d.Better:
				t.Errorf("%s: %s is %s/%s, BENCHMARK.json says %s/%s", kind, d.Name, m.unit, m.better, d.Unit, d.Better)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics([]*episode{ep}, []*episode{ep}))
	check("per_layer", b.PerLayer, perLayerMetrics([]*episode{ep}, []*episode{ep}, ep, 1, newProfileAcc()))
}

func TestClassify(t *testing.T) {
	const sq = modulePrefix + "sqlengine."
	cases := []struct {
		stack      []string
		layer, sub string
	}{
		{[]string{"runtime.mallocgc", sq + "(*Session).ExecStmt", sq + "(*Session).ExecUncached", modulePrefix + "server.(*DBServer).Apply"}, "sqlengine", "apply"},
		{[]string{sq + "lex", sq + "Parse", sq + "(*Engine).Prepare", modulePrefix + "server.(*DBServer).Exec"}, "sqlengine", "parse"},
		{[]string{sq + "estimate", sq + "(*Engine).buildPlanLocked", sq + "(*Statement).Run"}, "sqlengine", "plan"},
		{[]string{sq + "topNSelect", sq + "(*Session).ExecStmt", sq + "(*Statement).Run"}, "sqlengine", "exec"},
		{[]string{"runtime.gopark", modulePrefix + "sim.(*Proc).wait", modulePrefix + "proxy.(*Conn).Exec"}, "sim", ""},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc", ""},
		{[]string{"runtime.findRunnable", "runtime.schedule"}, "runtime", ""},
		{[]string{"runtime.memmove", "main.digests"}, "bench", ""},
	}
	for _, c := range cases {
		if layer, sub := classify(c.stack); layer != c.layer || sub != c.sub {
			t.Errorf("classify(%v) = %s/%s, want %s/%s", c.stack, layer, sub, c.layer, c.sub)
		}
	}
}

var sink int

func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			sink += i
		}
	}
}

// TestDecodeProfile decodes a real CPU profile of this process.
func TestDecodeProfile(t *testing.T) {
	a := newProfileAcc()
	if err := a.start(); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := decodeGzipProfile(a.buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range p.samples {
		for _, id := range s.locs {
			for _, fid := range p.locLines[id] {
				found = found || strings.HasSuffix(p.strings[p.funcName[fid]], ".spin")
			}
		}
	}
	if len(p.samples) == 0 || !found {
		t.Fatalf("%d samples, spin on a stack: %v", len(p.samples), found)
	}
}

func TestCovered(t *testing.T) {
	ms := time.Millisecond
	parent := &obs.Span{Start: 10 * ms, Dur: 100 * ms}
	kids := []*obs.Span{
		{Start: 20 * ms, Dur: 30 * ms},  // 20–50
		{Start: 40 * ms, Dur: 20 * ms},  // 40–60, overlaps the first
		{Start: 100 * ms, Dur: 50 * ms}, // 100–150, clipped to 110
		{Start: 200 * ms, Dur: 10 * ms}, // after the parent ended
	}
	if got := covered(parent, kids); got != 50*ms {
		t.Fatalf("covered = %v, want 50ms", got)
	}
}
