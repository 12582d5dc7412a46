package experiment

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBaseline marshals v into a baseline file in a fresh temp dir.
func writeBaseline(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCheckKernelBaseline: the gate passes within both bounds, fails when
// micro ns/event regresses more than 20% or cell allocs/event grows more
// than 2%, and refuses a baseline with a gated field zero or missing.
func TestCheckKernelBaseline(t *testing.T) {
	base := KernelBenchResult{
		Micro: KernelMeasure{NsPerEvent: 500, AllocsPerEvent: 0.001},
		Cell:  KernelMeasure{NsPerEvent: 5000, AllocsPerEvent: 12},
	}
	path := writeBaseline(t, base)

	within := base
	within.Micro.NsPerEvent = 599 // +19.8%
	within.Cell.AllocsPerEvent = 12.2
	within.Cell.NsPerEvent = 50000 // the cell's wall-clock is not gated
	if err := CheckKernelBaseline(path, within); err != nil {
		t.Fatalf("within bounds: %v", err)
	}

	slowMicro := base
	slowMicro.Micro.NsPerEvent = 601
	if err := CheckKernelBaseline(path, slowMicro); err == nil || !strings.Contains(err.Error(), "micro.ns_per_event") {
		t.Fatalf("micro ns/event +20.2%%: %v", err)
	}

	allocs := base
	allocs.Cell.AllocsPerEvent = 12.25 // +2.1%
	if err := CheckKernelBaseline(path, allocs); err == nil || !strings.Contains(err.Error(), "cell.allocs_per_event") {
		t.Fatalf("cell allocs/event +2.1%%: %v", err)
	}

	for name, raw := range map[string]string{
		"zero micro ns/event":     `{"micro":{"ns_per_event":0},"cell":{"allocs_per_event":12}}`,
		"missing cell allocs":     `{"micro":{"ns_per_event":500},"cell":{"ns_per_event":5000}}`,
		"missing micro workload":  `{"cell":{"allocs_per_event":12}}`,
		"zero cell allocs/events": `{"micro":{"ns_per_event":500},"cell":{"allocs_per_event":0}}`,
	} {
		p := filepath.Join(t.TempDir(), "baseline.json")
		if err := os.WriteFile(p, []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := CheckKernelBaseline(p, base); err == nil || !strings.Contains(err.Error(), "missing or zero") {
			t.Errorf("%s: %v", name, err)
		}
	}
	if err := CheckKernelBaseline(filepath.Join(t.TempDir(), "absent.json"), base); err == nil {
		t.Error("absent baseline file accepted")
	}
}

// TestCheckPlanBaseline: point read is gated on ops/sec and the other
// shapes on rows/sec, each failing more than 20% below the baseline rate.
func TestCheckPlanBaseline(t *testing.T) {
	m := func(ops, rows float64) PlanBenchMeasure { return PlanBenchMeasure{OpsPerSec: ops, RowsPerSec: rows} }
	base := PlanBenchResult{
		PointRead: m(400000, 400000), IndexScan: m(50000, 4e6),
		HashJoin: m(50, 4e5), GroupAgg: m(500, 2e6),
		Apply: PlanBenchMeasure{OpsPerSec: 3e5, AllocsPerOp: 15},
	}
	path := writeBaseline(t, base)

	within := base
	within.PointRead = m(340000, 1) // rows/sec is not the point-read gate
	within.HashJoin = m(1, 3.4e5)   // nor ops/sec the join's
	if err := CheckPlanBaseline(path, within); err != nil {
		t.Fatalf("within bounds: %v", err)
	}

	slowPoint := base
	slowPoint.PointRead = m(330000, 400000) // 1.2 × 330k < 400k
	if err := CheckPlanBaseline(path, slowPoint); err == nil || !strings.Contains(err.Error(), "point_read ops") {
		t.Fatalf("point read ops/sec -17.5%%: %v", err)
	}

	slowAgg := base
	slowAgg.GroupAgg = m(500, 1.6e6)
	if err := CheckPlanBaseline(path, slowAgg); err == nil || !strings.Contains(err.Error(), "group_agg rows") {
		t.Fatalf("group agg rows/sec -20%%: %v", err)
	}

	noJoin := base
	noJoin.HashJoin = PlanBenchMeasure{}
	if err := CheckPlanBaseline(writeBaseline(t, noJoin), base); err == nil || !strings.Contains(err.Error(), "missing or zero") {
		t.Fatalf("baseline without hash_join rate: %v", err)
	}

	// The applier is gated on allocations per statement (2%), not on its
	// statements/s.
	slowApply := base
	slowApply.Apply = PlanBenchMeasure{OpsPerSec: 1e4, AllocsPerOp: 15.2}
	if err := CheckPlanBaseline(path, slowApply); err != nil {
		t.Fatalf("apply within 2%% allocs, slower rate: %v", err)
	}
	allocApply := base
	allocApply.Apply = PlanBenchMeasure{OpsPerSec: 3e5, AllocsPerOp: 15.4}
	if err := CheckPlanBaseline(path, allocApply); err == nil || !strings.Contains(err.Error(), "apply allocs_per_op") {
		t.Fatalf("apply allocs/statement +2.7%%: %v", err)
	}
	noApply := base
	noApply.Apply = PlanBenchMeasure{}
	if err := CheckPlanBaseline(writeBaseline(t, noApply), base); err == nil || !strings.Contains(err.Error(), "apply allocs_per_op missing") {
		t.Fatalf("baseline without apply allocs: %v", err)
	}
}
