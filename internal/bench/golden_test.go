package bench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTablesGolden pins the whole paper reproduction: every table and
// experiment kcmbench prints (static sizes, the PLM, SPUR and Quintus
// models, KCM's simulated cycles, the cache study and the ablations)
// must render byte for byte as in testdata/tables.golden. After an
// intended change to a table, regenerate the file from the repository
// root with
//
//	go run ./cmd/kcmbench -table all > internal/bench/testdata/tables.golden
func TestTablesGolden(t *testing.T) {
	golden := filepath.Join("testdata", "tables.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := WriteTables(&got, "all"); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("output drifted from %s at line %d:\n got: %q\nwant: %q", golden, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("output has %d lines, %s has %d", len(gl), golden, len(wl))
}

// TestExperimentsExcerpts holds the reproduction record to the same
// output: every fenced block of EXPERIMENTS.md after the first (the
// regenerate commands) must be a contiguous run of lines of
// testdata/tables.golden, so a table quoted there cannot drift from
// what kcmbench prints. Trailing blanks are ignored on both sides: a
// golden row whose last cell is empty ends in a space that editors
// strip.
func TestExperimentsExcerpts(t *testing.T) {
	golden := filepath.Join("testdata", "tables.golden")
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := "\n" + strings.Join(trimmedLines(string(raw)), "\n") + "\n"
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	type block struct {
		line  int // EXPERIMENTS.md line of the block's first row
		lines []string
	}
	var blocks []block
	var cur *block
	for i, l := range trimmedLines(string(doc)) {
		switch {
		case strings.HasPrefix(l, "```") && cur == nil:
			cur = &block{line: i + 2}
		case strings.HasPrefix(l, "```"):
			blocks = append(blocks, *cur)
			cur = nil
		case cur != nil:
			cur.lines = append(cur.lines, l)
		}
	}
	if cur != nil || len(blocks) < 2 {
		t.Fatalf("EXPERIMENTS.md: %d closed fenced blocks (unclosed: %v), want the commands and at least one table", len(blocks), cur != nil)
	}
	for _, b := range blocks[1:] {
		if len(b.lines) > 0 && strings.Contains(want, "\n"+strings.Join(b.lines, "\n")+"\n") {
			continue
		}
		at, msg := b.line, "empty fenced block"
		if len(b.lines) > 0 {
			msg = "fenced block is not a contiguous run of " + golden + " lines"
		}
		for j, l := range b.lines {
			if !strings.Contains(want, "\n"+l+"\n") {
				at, msg = b.line+j, fmt.Sprintf("%q is no line of %s", l, golden)
				break
			}
		}
		t.Errorf("EXPERIMENTS.md:%d: %s", at, msg)
	}
}

// trimmedLines splits s into lines with trailing blanks removed.
func trimmedLines(s string) []string {
	ls := strings.Split(s, "\n")
	for i, l := range ls {
		ls[i] = strings.TrimRight(l, " \t")
	}
	return ls
}
