package experiment

import (
	"slices"
	"strings"
	"testing"
)

// TestSectionRegistryInvariants: CLI names and BENCH_ file names are unique
// across the registry, every named row is runnable, -all selects every such
// row, and the determinism arms keep their order.
func TestSectionRegistryInvariants(t *testing.T) {
	sections := Sections()
	names := map[string]bool{}
	files := map[string]bool{}
	var arms []string
	for _, s := range sections {
		if s.Determinism != nil {
			arms = append(arms, s.Determinism.Name)
		}
		if len(s.Names) == 0 {
			if s.Determinism == nil || s.Run != nil || s.Flag != "" || s.File != "" {
				t.Errorf("row without names must be a bare determinism arm: %+v", s)
			}
			continue
		}
		if s.Flag == "" || s.Banner == "" || s.File == "" || s.Run == nil {
			t.Errorf("row %v lacks a flag, banner, file or run function", s.Names)
		}
		for _, n := range s.Names {
			if names[n] {
				t.Errorf("CLI name %q is used by two rows", n)
			}
			names[n] = true
		}
		if files[s.File] {
			t.Errorf("BENCH_%s.json is written by two rows", s.File)
		}
		files[s.File] = true
	}

	all := Selection{}
	all.AddAll()
	if len(all) != len(names) {
		t.Errorf("-all selects %d names, the registry has %d", len(all), len(names))
	}
	for _, s := range sections {
		if got, want := all.Selects(s), len(s.Names) > 0; got != want {
			t.Errorf("-all selects row %v: %v, want %v", s.Names, got, want)
		}
	}

	want := []string{"A-PIPELINE", "A-TRACE", "KERNEL-SHARDS", "A-SHARD", "A-CONSIST", "A-PLAN"}
	if !slices.Equal(arms, want) {
		t.Errorf("determinism arms %v, want %v", arms, want)
	}
}

// TestSelectionRejectsUnknownName: a name no row answers to under the flag
// is an error that lists the registry's names for that flag.
func TestSelectionRejectsUnknownName(t *testing.T) {
	sel := Selection{}
	err := sel.Add("fig", "2, 7")
	if err == nil || !strings.Contains(err.Error(), `unknown -fig name "7" (valid: 2,3,4,5,6)`) {
		t.Fatalf("unknown figure: %v", err)
	}
	err = sel.Add("ablation", "sync,bogus")
	if err == nil {
		t.Fatal("unknown ablation accepted")
	}
	valid := FlagNames("ablation")
	if !strings.Contains(err.Error(), "(valid: "+strings.Join(valid, ",")+")") {
		t.Fatalf("error does not list the registry's ablations %v: %v", valid, err)
	}
	for _, n := range []string{"sync", "elastic", "plan"} {
		if !slices.Contains(valid, n) {
			t.Errorf("ablation %q missing from %v", n, valid)
		}
	}
	// An ablation name is not a figure name.
	if err := sel.Add("fig", "sync"); err == nil {
		t.Error("-fig accepted an ablation name")
	}
	five := Selection{}
	if err := five.Add("fig", "5"); err != nil || len(five) != 1 || !five["5"] {
		t.Errorf("-fig 5: err=%v selection=%v", err, five)
	}
}
