package bench

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/compiler"
	"repro/internal/machine"
)

var updateFacts = flag.Bool("update", false, "rewrite the golden facts tables")

// suiteFacts compiles one benchmark (Table 2 variant) and runs the
// whole-image analyzer over its linked image.
func suiteFacts(t *testing.T, p Program) *analysis.ImageFacts {
	t.Helper()
	im, err := Compile(p, false)
	if err != nil {
		t.Fatal(err)
	}
	f := analysis.AnalyzeImage(im.Code, 0, im.Entries, nil)
	if len(f.Diags) != 0 {
		t.Fatalf("%s: partition diags: %v", p.Name, f.Diags)
	}
	return f
}

// TestFactsGolden pins the analyzer's whole output for every suite
// program: entry modes, determinism classes and dead-code reports.
// Run with -update to rewrite the tables after an
// intentional analyzer change.
func TestFactsGolden(t *testing.T) {
	for _, p := range Suite {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			flat := suiteFacts(t, p).Flat()
			golden := filepath.Join("testdata", p.Name+".facts.golden")
			if *updateFacts {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(flat), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if string(want) != flat {
				t.Errorf("facts drifted from %s:\n--- got\n%s--- want\n%s",
					golden, flat, want)
			}
		})
	}
}

// TestFactsCoverage asserts the tentpole acceptance property directly:
// every reachable predicate of every suite image carries an entry mode
// vector of its full arity and a definite determinism class.
func TestFactsCoverage(t *testing.T) {
	for _, p := range Suite {
		f := suiteFacts(t, p)
		for _, pf := range f.Preds {
			if !pf.Reachable {
				continue
			}
			if len(pf.Mode) != pf.PI().Arity {
				t.Errorf("%s: %s mode arity %d, want %d",
					p.Name, pf.Name, len(pf.Mode), pf.PI().Arity)
			}
			if pf.Det == analysis.DetUnknown {
				t.Errorf("%s: %s has no determinism class", p.Name, pf.Name)
			}
		}
	}
}

// TestDetOracle holds the analyzer to its determinism claims on real
// executions: every suite program runs under a trace hook asserting
// that no choice-point restore ever resumes inside a predicate
// classified Det. A run that saw zero restores proves nothing, so the
// suite-wide restore count must be positive.
func TestDetOracle(t *testing.T) {
	var restores uint64
	for _, p := range Suite {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			im, err := Compile(p, false)
			if err != nil {
				t.Fatal(err)
			}
			f := analysis.AnalyzeImage(im.Code, 0, im.Entries, nil)
			oracle := analysis.NewOracle(f)
			m, err := machine.New(im, machine.Config{Hook: oracle})
			if err != nil {
				t.Fatal(err)
			}
			entry, ok := im.Entry(compiler.QueryPI)
			if !ok {
				t.Fatal("no query entry")
			}
			if _, err := m.Run(entry); err != nil {
				t.Fatal(err)
			}
			for _, v := range oracle.Violations() {
				t.Errorf("%s: %v", p.Name, v)
			}
			restores += oracle.Restores()
		})
	}
	if restores == 0 {
		t.Fatal("suite produced no cp_restore events: the oracle observed nothing")
	}
	t.Logf("oracle examined %d restores, no Det claim contradicted", restores)
}
