package experiment

import (
	"strings"
	"testing"
)

// TestCheckDeterminismPassesOnPureRun: a run function with no hidden state
// byte-compares equal.
func TestCheckDeterminismPassesOnPureRun(t *testing.T) {
	err := CheckDeterminism("pure", func() (any, error) {
		return map[string]any{"x": 1, "y": []int{2, 3}}, nil
	})
	if err != nil {
		t.Fatalf("pure run flagged nondeterministic: %v", err)
	}
}

// TestCheckDeterminismCatchesCounter: state carried across runs (the bug
// class: a package-level counter, cache, or rand stream) must fail with a
// pointer at the drifting line.
func TestCheckDeterminismCatchesCounter(t *testing.T) {
	n := 0
	err := CheckDeterminism("counter", func() (any, error) {
		n++
		return map[string]int{"stable": 7, "drift": n}, nil
	})
	if err == nil {
		t.Fatal("carried-over counter not detected")
	}
	if !strings.Contains(err.Error(), "first divergence") || !strings.Contains(err.Error(), "drift") {
		t.Fatalf("error does not point at the drifting field: %v", err)
	}
}

// TestInjectNondeterminismFailsTheCheck: the -determinism-inject escape
// valve salts the encoding from the global rand stream, so the check must
// fail even on a pure run — this is the sanitizer's own self-test.
func TestInjectNondeterminismFailsTheCheck(t *testing.T) {
	InjectNondeterminism = true
	defer func() { InjectNondeterminism = false }()
	err := CheckDeterminism("inject", func() (any, error) {
		return map[string]int{"x": 1}, nil
	})
	if err == nil {
		t.Fatal("injected global-rand entropy not detected")
	}
}

// TestPipelineDeterminism is the regression guard for the repo's core
// contract: the registry's A-PIPELINE arm (short protocol, corner grid) run
// twice with one seed emits byte-identical JSON. Any global rand, wall-clock
// read or unordered map range on the hot path breaks this test before it
// breaks a figure.
func TestPipelineDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the corner-grid ablation twice; skipped in -short")
	}
	if err := registryArm(t, "A-PIPELINE").Check(SweepOpts{Short: true, Seed: 42}); err != nil {
		t.Fatal(err)
	}
}

// registryArm returns the determinism arm of that name from the registry.
func registryArm(t *testing.T, name string) *Arm {
	t.Helper()
	for _, s := range Sections() {
		if s.Determinism != nil && s.Determinism.Name == name {
			return s.Determinism
		}
	}
	t.Fatalf("no determinism arm %q in the registry", name)
	return nil
}
