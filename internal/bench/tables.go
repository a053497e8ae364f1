package bench

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/plm"
	"repro/internal/quintus"
	"repro/internal/spur"
)

// ---------------- Table 1: static code size ----------------

// Table1Row compares static code size across PLM, SPUR and KCM for
// one benchmark program (runtime library excluded, as in the paper).
type Table1Row struct {
	Program   string
	PLMInstr  int
	PLMBytes  int
	SPURInstr int
	SPURBytes int
	KCMInstr  int
	KCMWords  int
	KCMBytes  int
}

// KCMvsPLMInstr is the KCM/PLM instruction ratio.
func (r Table1Row) KCMvsPLMInstr() float64 { return float64(r.KCMInstr) / float64(r.PLMInstr) }

// KCMvsPLMBytes is the KCM/PLM byte ratio.
func (r Table1Row) KCMvsPLMBytes() float64 { return float64(r.KCMBytes) / float64(r.PLMBytes) }

// SPURvsKCMInstr is the SPUR/KCM instruction ratio.
func (r Table1Row) SPURvsKCMInstr() float64 { return float64(r.SPURInstr) / float64(r.KCMInstr) }

// SPURvsKCMBytes is the SPUR/KCM byte ratio.
func (r Table1Row) SPURvsKCMBytes() float64 { return float64(r.SPURBytes) / float64(r.KCMBytes) }

// Table1 compiles every benchmark and measures its static size under
// the three encodings.
func Table1() ([]Table1Row, error) {
	var rows []Table1Row
	for _, p := range Suite {
		prog, err := core.Load(p.Source)
		if err != nil {
			return nil, err
		}
		c := compiler.New(prog.Syms())
		mod, err := c.CompileProgram(prog.Clauses())
		if err != nil {
			return nil, err
		}
		im, err := asm.Link(mod)
		if err != nil {
			return nil, err
		}
		row := Table1Row{Program: p.Name}
		for _, pi := range mod.Order {
			st := im.Stats[pi]
			row.KCMInstr += st.Instrs
			row.KCMWords += st.Words
			ps := plm.PredSize(mod.Preds[pi].Code)
			row.PLMInstr += ps.Instrs
			row.PLMBytes += ps.Bytes
			ss := spur.PredSize(mod.Preds[pi].Code)
			row.SPURInstr += ss.Instrs
			row.SPURBytes += ss.Bytes
		}
		row.KCMBytes = row.KCMWords * 8
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------------- Tables 2 and 3: execution time ----------------

// TimeRow compares KCM against one baseline on one program.
type TimeRow struct {
	Program       string
	Inferences    uint64
	BaseMs        float64 // baseline (PLM or QUINTUS)
	BaseKlips     float64
	KCMMs         float64
	KCMKlips      float64
	PaperRatio    float64 // the paper's reported ms ratio (0 if absent)
	PaperKCMKlips float64
}

// Ratio is baseline ms / KCM ms.
func (r TimeRow) Ratio() float64 { return r.BaseMs / r.KCMMs }

// Table2 runs the suite on KCM and on the PLM cost model (Table 2
// protocol: I/O compiled as cheap unit clauses, integer arithmetic,
// warm caches / best-of-several-runs).
func Table2() ([]TimeRow, error) {
	var rows []TimeRow
	for _, p := range Suite {
		k, err := RunKCMWarm(p, false, machine.Config{})
		if err != nil {
			return nil, err
		}
		b, err := RunKCMWarm(p, false, plm.Config())
		if err != nil {
			return nil, err
		}
		paperRatio := 0.0
		if p.PaperKCMms > 0 {
			paperRatio = p.PaperPLMms / p.PaperKCMms
		}
		rows = append(rows, TimeRow{
			Program:    p.Name,
			Inferences: k.Stats.Inferences,
			BaseMs:     b.Stats.Millis(),
			BaseKlips:  b.Stats.Klips(),
			KCMMs:      k.Stats.Millis(),
			KCMKlips:   k.Stats.Klips(),
			PaperRatio: paperRatio,
		})
	}
	return rows, nil
}

// Table3 runs the I/O-stripped suite on KCM and on the QUINTUS/SUN3
// cost model. Programs the paper judged too small for a meaningful
// QUINTUS timing carry PaperRatio 0 but are still measured.
func Table3() ([]TimeRow, error) {
	var rows []TimeRow
	for _, p := range Suite {
		k, err := RunKCMWarm(p, true, machine.Config{})
		if err != nil {
			return nil, err
		}
		b, err := RunKCMWarm(p, true, quintus.Config())
		if err != nil {
			return nil, err
		}
		paperRatio := 0.0
		if p.PaperQms > 0 && p.PaperKCMmsPure > 0 {
			paperRatio = p.PaperQms / p.PaperKCMmsPure
		}
		rows = append(rows, TimeRow{
			Program:    p.Name,
			Inferences: k.Stats.Inferences,
			BaseMs:     b.Stats.Millis(),
			BaseKlips:  b.Stats.Klips(),
			KCMMs:      k.Stats.Millis(),
			KCMKlips:   k.Stats.Klips(),
			PaperRatio: paperRatio,
		})
	}
	return rows, nil
}

// ---------------- Table 4: peak performance ----------------

// Table4Row is one machine in the peak-Klips comparison. Literature
// machines carry the figures quoted by the paper; the KCM row is
// measured on the simulator.
type Table4Row struct {
	Machine  string
	By       string
	ConKlips float64 // con1-like: one concatenation step
	RevKlips float64 // nrev1-like
	WordBits int
	Comment  string
	Measured bool
}

// Table4 measures KCM peak rates and lists the dedicated-machine
// figures the paper compares against.
func Table4() ([]Table4Row, error) {
	conKlips, err := peakConcatKlips()
	if err != nil {
		return nil, err
	}
	nrevKlips, err := peakNrevKlips()
	if err != nil {
		return nil, err
	}
	return []Table4Row{
		{Machine: "CHI-II", By: "NEC C&C", ConKlips: 490, RevKlips: 0, WordBits: 40, Comment: "Back-end - multi-processing"},
		{Machine: "DLM-1", By: "BAe", ConKlips: 800, RevKlips: 0, WordBits: 38, Comment: "Back-end - physical memory"},
		{Machine: "IPP", By: "Hitachi", ConKlips: 1360, RevKlips: 1197, WordBits: 32, Comment: "Integrated in super-mini (ECL)"},
		{Machine: "AIP", By: "Toshiba", ConKlips: 0, RevKlips: 620, WordBits: 32, Comment: "Back-end"},
		{Machine: "KCM", By: "ECRC", ConKlips: conKlips, RevKlips: nrevKlips, WordBits: 64, Comment: "Back-end", Measured: true},
		{Machine: "PSI-II", By: "ICOT", ConKlips: 400, RevKlips: 320, WordBits: 40, Comment: "Stand-alone - multi-processing"},
		{Machine: "X-1", By: "Xenologic", ConKlips: 400, RevKlips: 0, WordBits: 32, Comment: "SUN co-processor"},
	}, nil
}

// peakConcatKlips measures the steady-state concatenation rate: the
// marginal cost of one more concat step with warm, capacity-fitting
// caches (the paper's "one concatenation step is 15 cycles" method).
func peakConcatKlips() (float64, error) {
	const n = 100
	src := appendLib + "\nmklist(0, []).\nmklist(N, [N|T]) :- N > 0, M is N - 1, mklist(M, T).\n"
	run := func(apps string) (uint64, error) {
		p := Program{Name: "concat", Source: src,
			PureQuery: "mklist(100, L)" + apps + "."}
		r, err := RunKCMWarm(p, true, machine.Config{})
		if err != nil {
			return 0, err
		}
		return r.Stats.Cycles, nil
	}
	one, err := run(", app(L, [x], _)")
	if err != nil {
		return 0, err
	}
	three, err := run(", app(L, [x], _), app(L, [x], _), app(L, [x], _)")
	if err != nil {
		return 0, err
	}
	cyc := float64(three-one) / float64(2*(n+1))
	return 1e6 / (cyc * 0.080) / 1000, nil // steps/s in K at 80 ns
}

// peakNrevKlips measures the nrev1-like rate: marginal Klips of naive
// reversal at a cache-friendly size.
func peakNrevKlips() (float64, error) {
	run := func(reps int) (uint64, uint64, error) {
		goal := "list20(L)"
		for i := 0; i < reps; i++ {
			goal += ", nrev(L, _)"
		}
		p := Program{Name: "nrevpeak", Source: nrevLib +
			"\nlist20([1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20]).\n",
			PureQuery: goal + "."}
		r, err := RunKCMWarm(p, true, machine.Config{})
		if err != nil {
			return 0, 0, err
		}
		return r.Stats.Cycles, r.Stats.Inferences, nil
	}
	c1, i1, err := run(1)
	if err != nil {
		return 0, err
	}
	c3, i3, err := run(3)
	if err != nil {
		return 0, err
	}
	sec := float64(c3-c1) * 80e-9
	return float64(i3-i1) / sec / 1000, nil
}

// ---------------- rendering ----------------

// RenderTable1 formats Table 1 like the paper.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %6s %6s %7s %7s %6s %6s %6s %8s %8s %9s %9s\n",
		"Program", "PLM.I", "PLM.B", "SPUR.I", "SPUR.B", "KCM.I", "KCM.W", "KCM.B",
		"K/P.I", "K/P.B", "S/K.I", "S/K.B")
	var sI, sB, kI, kB float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %6d %6d %7d %7d %6d %6d %6d %8.2f %8.2f %9.2f %9.2f\n",
			r.Program, r.PLMInstr, r.PLMBytes, r.SPURInstr, r.SPURBytes,
			r.KCMInstr, r.KCMWords, r.KCMBytes,
			r.KCMvsPLMInstr(), r.KCMvsPLMBytes(), r.SPURvsKCMInstr(), r.SPURvsKCMBytes())
		kI += r.KCMvsPLMInstr()
		kB += r.KCMvsPLMBytes()
		sI += r.SPURvsKCMInstr()
		sB += r.SPURvsKCMBytes()
	}
	n := float64(len(rows))
	fmt.Fprintf(&b, "%-10s %6s %6s %7s %7s %6s %6s %6s %8.2f %8.2f %9.2f %9.2f\n",
		"average", "", "", "", "", "", "", "", kI/n, kB/n, sI/n, sB/n)
	return b.String()
}

// RenderTimeTable formats Tables 2 and 3.
func RenderTimeTable(rows []TimeRow, baseName string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s %9s %7s %9s %7s %8s %8s\n",
		"Program", "Inferences", baseName+".ms", "Klips", "KCM.ms", "Klips", "ratio", "paper")
	var sum, psum float64
	var np int
	for _, r := range rows {
		paper := ""
		if r.PaperRatio > 0 {
			paper = fmt.Sprintf("%8.2f", r.PaperRatio)
			psum += r.PaperRatio
			np++
		}
		fmt.Fprintf(&b, "%-10s %10d %9.3f %7.0f %9.3f %7.0f %8.2f %s\n",
			r.Program, r.Inferences, r.BaseMs, r.BaseKlips, r.KCMMs, r.KCMKlips,
			r.Ratio(), paper)
		sum += r.Ratio()
	}
	fmt.Fprintf(&b, "%-10s %10s %9s %7s %9s %7s %8.2f",
		"average", "", "", "", "", "", sum/float64(len(rows)))
	if np > 0 {
		fmt.Fprintf(&b, " %8.2f", psum/float64(np))
	}
	b.WriteString("\n")
	return b.String()
}

// RenderTable4 formats the peak comparison.
func RenderTable4(rows []Table4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-10s %12s %6s  %s\n", "Machine", "By", "Klips", "Word", "Comment")
	for _, r := range rows {
		con := "?"
		if r.ConKlips > 0 {
			con = fmt.Sprintf("%.0f", r.ConKlips)
		}
		rev := "?"
		if r.RevKlips > 0 {
			rev = fmt.Sprintf("%.0f", r.RevKlips)
		}
		tag := ""
		if r.Measured {
			tag = " (measured)"
		}
		fmt.Fprintf(&b, "%-8s %-10s %5s - %5s %5d  %s%s\n",
			r.Machine, r.By, con, rev, r.WordBits, r.Comment, tag)
	}
	return b.String()
}

// ---------------- the whole report ----------------

// paperTable is one block of the report: a table or experiment's
// heading and a function that measures and renders its rows.
type paperTable struct {
	name, heading string
	render        func() (string, error)
}

// rendered pairs a row source with its renderer.
func rendered[R any](rows func() ([]R, error), render func([]R) string) func() (string, error) {
	return func() (string, error) {
		rs, err := rows()
		if err != nil {
			return "", err
		}
		return render(rs), nil
	}
}

var paperTables = []paperTable{
	{"1", "Table 1: static code size comparison (paper avgs: KCM/PLM instr 1.10, bytes 2.96; SPUR/KCM instr 13.61, bytes 6.43)",
		rendered(Table1, RenderTable1)},
	{"2", "Table 2: comparison with PLM (paper avg ratio 3.05)",
		rendered(Table2, func(rs []TimeRow) string { return RenderTimeTable(rs, "PLM") })},
	{"3", "Table 3: comparison with QUINTUS/SUN3-280 (paper avg ratio 7.85)",
		rendered(Table3, func(rs []TimeRow) string { return RenderTimeTable(rs, "QUINTUS") })},
	{"4", "Table 4: peak performance of dedicated Prolog machines (paper KCM: 833 - 760)",
		rendered(Table4, RenderTable4)},
	{"cache", "Cache-collision study (section 3.2.4)",
		rendered(CacheStudy, RenderCacheStudy)},
	{"shallow", "Ablation: shallow backtracking vs eager choice points",
		rendered(AblationShallow, RenderShallow)},
	{"deref", "Ablation: dereference hardware (1 cycle/link vs software loop)",
		rendered(func() ([]UnitRow, error) { return AblationUnit("deref") },
			func(rs []UnitRow) string { return RenderUnit(rs, "deref") })},
	{"trail", "Ablation: parallel trail check vs explicit comparisons",
		rendered(func() ([]UnitRow, error) { return AblationUnit("trail") },
			func(rs []UnitRow) string { return RenderUnit(rs, "trail") })},
}

// WriteTables writes the report kcmbench prints: for the named table
// (1, 2, 3, 4, cache, shallow, deref or trail), or for every table in
// that order when which is "all", its heading line and then its
// rendered rows followed by a blank line.
func WriteTables(w io.Writer, which string) error {
	found := false
	for _, t := range paperTables {
		if which != "all" && which != t.name {
			continue
		}
		found = true
		s, err := t.render()
		if err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		if _, err := fmt.Fprintf(w, "%s\n%s\n", t.heading, s); err != nil {
			return err
		}
	}
	if !found {
		return fmt.Errorf("unknown table %q", which)
	}
	return nil
}
