package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"cloudrepl/internal/obs"
	"cloudrepl/internal/sim"
)

// benchSpan is one of the benchmark's own host-clock spans: set-up, run,
// drain, verify, replay and audit of each simulated run.
type benchSpan struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 = root
	Name    string  `json:"name"`
	StartMs float64 `json:"start_ms"` // since the benchmark started
	EndMs   float64 `json:"end_ms"`
}

// spanLog keeps every span in memory until the benchmark writes it out.
type spanLog struct {
	origin time.Time
	spans  []benchSpan
}

//cloudrepl:allow-simtime the benchmark's own spans are on the host clock
func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

//cloudrepl:allow-simtime the benchmark's own spans are on the host clock
func (l *spanLog) since() float64 {
	return float64(time.Since(l.origin)) / float64(time.Millisecond)
}

// start opens a span under parent and returns its id.
func (l *spanLog) start(name string, parent int) int {
	l.spans = append(l.spans, benchSpan{ID: len(l.spans) + 1, Parent: parent, Name: name, StartMs: l.since()})
	return len(l.spans)
}

func (l *spanLog) end(id int) { l.spans[id-1].EndMs = l.since() }

// write stores the spans, with the per-layer metrics, as JSON.
func (l *spanLog) write(path string, perLayer map[string]float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(map[string]any{"settings": hostSettings(), "spans": l.spans, "per_layer": perLayer}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Span stages of the program's tracer whose self time is reported.
var stages = []string{"client", "pool", "proxy", "server", "binlog", "apply"}

// spanStats summarizes the program's simulated-clock spans of one traced
// run, over spans that start in the steady window.
type spanStats struct {
	selfMsPerOp map[string]float64   // stage → self time per steady op
	durMs       map[string][]float64 // "stage/name" → span durations
	routes      int
	attempts    int
}

// analyzeSpans computes each stage's self time — a span's duration minus
// the part of it that its children cover — and the duration samples of
// the spans the per-layer metrics name.
func analyzeSpans(spans []*obs.Span, from, to sim.Time, steadyOps int) *spanStats {
	children := make(map[uint64][]*obs.Span)
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	st := &spanStats{selfMsPerOp: make(map[string]float64), durMs: make(map[string][]float64)}
	self := make(map[string]time.Duration)
	for _, sp := range spans {
		if sp.Start < from || sp.Start >= to || sp.Dur < 0 {
			continue
		}
		self[sp.Stage] += sp.Dur - covered(sp, children[sp.ID])
		key := sp.Stage + "/" + sp.Name
		st.durMs[key] = append(st.durMs[key], float64(sp.Dur)/float64(time.Millisecond))
		switch key {
		case "proxy/route":
			st.routes++
		case "proxy/attempt":
			st.attempts++
		}
	}
	for _, stage := range stages {
		st.selfMsPerOp[stage] = float64(self[stage]) / float64(time.Millisecond) / float64(steadyOps)
	}
	return st
}

// covered returns how much of sp's interval the union of its children's
// intervals covers. Linked children (a ship or an apply of a write) may
// start after their parent ended; only the overlap counts.
func covered(sp *obs.Span, kids []*obs.Span) time.Duration {
	start, end := sp.Start, sp.Start+sp.Dur
	type iv struct{ a, b sim.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.Start+k.Dur, end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB sim.Time
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	return total + curB - curA
}
