package bench

import (
	"bytes"
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
