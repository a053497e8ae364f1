package main

import (
	"path/filepath"
	"testing"

	"repro/internal/bench"
)

// TestExamplesClean extracts every embedded Prolog program from the
// example commands and requires the verifier to come back empty.
func TestExamplesClean(t *testing.T) {
	files, err := filepath.Glob("../../examples/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no example programs found")
	}
	for _, f := range files {
		progs, err := extractPrograms(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if len(progs) == 0 {
			t.Errorf("%s: no embedded Prolog programs extracted", f)
		}
		for _, p := range progs {
			rep, err := vetSource(p.Source, "", true)
			if err != nil {
				t.Errorf("%s#%s: %v", f, p.Name, err)
				continue
			}
			for _, d := range rep.Diags {
				t.Errorf("%s#%s: %v", f, p.Name, d)
			}
		}
	}
}

// TestBenchSuiteClean vets every benchmark program together with its
// Table 2 query, pre-link and as a linked image.
func TestBenchSuiteClean(t *testing.T) {
	for _, p := range bench.Suite {
		rep, err := vetSource(p.Source, p.Query, false)
		if err != nil {
			t.Errorf("%s: %v", p.Name, err)
			continue
		}
		if rep.Preds == 0 {
			t.Errorf("%s: no predicates compiled", p.Name)
		}
		for _, d := range rep.Diags {
			t.Errorf("%s: %v", p.Name, d)
		}
	}
}
