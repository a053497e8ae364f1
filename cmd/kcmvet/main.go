// Command kcmvet statically vets KCM code: it compiles Prolog
// sources, runs the internal/analysis verifier over every predicate's
// instruction stream (control-flow graph, register init-before-use,
// permanent-variable lifetimes, choice-point chain discipline, label
// validity, unreachable code), links the module, and re-checks the
// encoded image the way the loader would.
//
// Usage:
//
//	kcmvet [-disasm] [-bench] [-v] [-strict] [file.pl|file.go]...
//
// A .pl argument is vetted as one program. A .go argument is scanned
// for top-level backquoted string constants that parse as Prolog
// (the convention the examples use), and each is vetted separately.
// -bench additionally vets every program of the internal benchmark
// suite together with its Table 2 query. -strict also fails (exit 1)
// on compiler warnings such as unreachable predicates.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/kcmisa"
	"repro/internal/reader"
	"repro/internal/term"
)

func main() {
	disasm := flag.Bool("disasm", false, "print the disassembly of each vetted image")
	benchAll := flag.Bool("bench", false, "also vet the internal benchmark suite")
	verbose := flag.Bool("v", false, "report clean programs too")
	strict := flag.Bool("strict", false, "treat compiler warnings as failures")
	flag.Parse()
	if flag.NArg() == 0 && !*benchAll {
		fmt.Fprintln(os.Stderr, "usage: kcmvet [-disasm] [-bench] [-v] [-strict] [file.pl|file.go]...")
		os.Exit(2)
	}

	bad := false
	run := func(name, src, query string, partial bool) {
		rep, err := vetSource(src, query, partial)
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "kcmvet: %s: %v\n", name, err)
			bad = true
		case len(rep.Diags) > 0:
			bad = true
			for _, d := range rep.Diags {
				fmt.Printf("%s: %v\n", name, d)
			}
		case *verbose:
			fmt.Printf("%s: ok (%d predicates, %d instructions)\n",
				name, rep.Preds, rep.Instrs)
		}
		if rep != nil {
			for _, w := range rep.Warnings {
				fmt.Printf("%s: warning: %s\n", name, w)
				if *strict {
					bad = true
				}
			}
		}
		if *disasm && rep != nil && rep.Image != nil {
			fmt.Print(asm.Disasm(rep.Image))
		}
	}

	for _, arg := range flag.Args() {
		switch {
		case strings.HasSuffix(arg, ".go"):
			progs, err := extractPrograms(arg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "kcmvet: %s: %v\n", arg, err)
				bad = true
				continue
			}
			if len(progs) == 0 {
				fmt.Fprintf(os.Stderr, "kcmvet: %s: no Prolog program constants found\n", arg)
				bad = true
				continue
			}
			for _, p := range progs {
				// Embedded fragments may call predicates consulted at
				// run time, so they are linked against a stub table.
				run(fmt.Sprintf("%s#%s", arg, p.Name), p.Source, "", true)
			}
		default:
			b, err := os.ReadFile(arg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "kcmvet: %v\n", err)
				bad = true
				continue
			}
			run(arg, string(b), "", false)
		}
	}
	if *benchAll {
		for _, p := range bench.Suite {
			run("bench:"+p.Name, p.Source, p.Query, false)
		}
	}
	if bad {
		os.Exit(1)
	}
}

// Report is the outcome of vetting one program.
type Report struct {
	Diags    []analysis.Diag
	Warnings []string
	Preds    int
	Instrs   int
	Image    *asm.Image
}

// vetSource compiles a Prolog program (with an optional query goal),
// analyzes every predicate's pre-link code, links the module, and
// vets the encoded image. Compilation itself runs with the compiler's
// own verification pass off so that every finding is collected here
// instead of aborting at the first bad predicate. With partial set,
// calls to predicates the program does not define resolve to a stub
// entry instead of failing the link (a fragment consulted into a
// larger program at run time).
func vetSource(src, query string, partial bool) (*Report, error) {
	prog, err := core.Load(src)
	if err != nil {
		return nil, err
	}
	prev := compiler.SetVerify(false)
	defer compiler.SetVerify(prev)
	c := compiler.New(prog.Syms())
	mod, err := c.CompileProgram(prog.Clauses())
	if err != nil {
		return nil, err
	}
	if query != "" {
		goal, err := reader.ParseTerm(query)
		if err != nil {
			return nil, err
		}
		if err := c.CompileQuery(mod, goal); err != nil {
			return nil, err
		}
	}
	rep := &Report{Preds: len(mod.Order), Warnings: mod.Warnings}
	for _, pi := range mod.Order {
		p := mod.Preds[pi]
		rep.Instrs += len(p.Code)
		rep.Diags = append(rep.Diags, analysis.AnalyzePred(pi, p.Code)...)
	}
	var im *asm.Image
	base := uint32(0)
	if partial {
		// Resolve calls to undefined predicates through a stub table
		// pointing below the link base (the bootstrap address), which
		// the encoded-level vet accepts as external code.
		stubs := map[term.Indicator]uint32{}
		for _, pi := range mod.Order {
			for _, in := range mod.Preds[pi].Code {
				if in.Op != kcmisa.Call && in.Op != kcmisa.Execute {
					continue
				}
				if _, ok := mod.Preds[in.Proc]; !ok {
					stubs[in.Proc] = 0
				}
			}
		}
		base = asm.Base
		im, err = asm.LinkAt(mod, base, stubs)
	} else {
		im, err = asm.Link(mod)
	}
	if err != nil {
		return rep, err
	}
	rep.Image = im
	rep.Diags = append(rep.Diags, analysis.VetEncoded(im.Code, base, im.Entries)...)
	return rep, nil
}
