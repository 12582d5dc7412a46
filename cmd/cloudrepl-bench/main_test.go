package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cloudrepl/internal/experiment"
)

// TestUnknownNameIsUsageError: an unknown -fig or -ablation name exits 2
// and lists the registry's names for that flag.
func TestUnknownNameIsUsageError(t *testing.T) {
	for _, args := range [][]string{{"-fig", "7"}, {"-ablation", "sync,bogus"}} {
		var stderr bytes.Buffer
		if code := run(args, io.Discard, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		flag := strings.TrimPrefix(args[0], "-")
		valid := "(valid: " + strings.Join(experiment.FlagNames(flag), ",") + ")"
		if !strings.Contains(stderr.String(), valid) {
			t.Errorf("%v: stderr %q does not list %s", args, stderr.String(), valid)
		}
	}
}

// kernelFiguresWallMs runs the bench with args plus a JSON directory and
// returns the figures_wall_ms that BENCH_kernel.json recorded.
func kernelFiguresWallMs(t *testing.T, args ...string) float64 {
	t.Helper()
	dir := t.TempDir()
	var stderr bytes.Buffer
	if code := run(append(args, "-short", "-q", "-json", dir), io.Discard, &stderr); code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_kernel.json"))
	if err != nil {
		t.Fatal(err)
	}
	var r experiment.KernelBenchResult
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatal(err)
	}
	return r.FiguresWallMs
}

// TestKernelFiguresWall: figures_wall_ms is the wall time of the sections
// that ran before the kernel bench, so a standalone run records exactly 0
// and a run behind the T-RTT table records that table's time.
func TestKernelFiguresWall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the kernel bench twice")
	}
	if ms := kernelFiguresWallMs(t, "-bench-kernel"); ms != 0 {
		t.Errorf("standalone -bench-kernel: figures_wall_ms = %v, want 0", ms)
	}
	if ms := kernelFiguresWallMs(t, "-rtt", "-bench-kernel"); ms <= 0 {
		t.Errorf("-rtt -bench-kernel: figures_wall_ms = %v, want the T-RTT wall time", ms)
	}
}
