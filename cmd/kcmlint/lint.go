package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// finding is one lint hit.
type finding struct {
	pos token.Position
	msg string
}

// parsedFile pairs a parsed file with its package name.
type parsedFile struct {
	file *ast.File
	pkg  string
}

// lintTree parses every .go file under root (skipping testdata and
// dot-directories) and runs all checks. Parsing the whole tree first
// lets the trace.Kind constant set be collected before any switch is
// judged.
func lintTree(root string) ([]finding, error) {
	fset := token.NewFileSet()
	var files []parsedFile
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
		files = append(files, parsedFile{file: f, pkg: f.Name.Name})
		return nil
	})
	if err != nil {
		return nil, err
	}

	kinds := collectKindConsts(files)
	var out []finding
	for _, pf := range files {
		out = append(out, checkSentinelCompare(fset, pf)...)
		out = append(out, checkStepsAllocs(fset, pf)...)
		out = append(out, checkKindSwitches(fset, pf, kinds)...)
		out = append(out, checkMachineAcrossWrite(fset, pf)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].pos, out[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out, nil
}

// collectKindConsts gathers the constant names declared with type Kind
// in package trace. In a const block only the first spec of an iota
// run carries the type, so the declared type is carried forward across
// specs until another type annotation replaces it.
func collectKindConsts(files []parsedFile) map[string]bool {
	kinds := map[string]bool{}
	for _, pf := range files {
		if pf.pkg != "trace" {
			continue
		}
		for _, decl := range pf.file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			isKind := false
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				if vs.Type != nil {
					id, ok := vs.Type.(*ast.Ident)
					isKind = ok && id.Name == "Kind"
				}
				if !isKind {
					continue
				}
				for _, n := range vs.Names {
					if n.Name != "_" {
						kinds[n.Name] = true
					}
				}
			}
		}
	}
	return kinds
}

var sentinelName = regexp.MustCompile(`^Err[A-Z]`)

// isSentinel reports whether the expression names a sentinel error:
// an identifier or selector of the ErrXxx form.
func isSentinel(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return sentinelName.MatchString(x.Name)
	case *ast.SelectorExpr:
		return sentinelName.MatchString(x.Sel.Name)
	}
	return false
}

// checkSentinelCompare flags == and != against sentinel errors.
func checkSentinelCompare(fset *token.FileSet, pf parsedFile) []finding {
	var out []finding
	ast.Inspect(pf.file, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		if isSentinel(be.X) || isSentinel(be.Y) {
			out = append(out, finding{
				pos: fset.Position(be.OpPos),
				msg: fmt.Sprintf("sentinel error compared with %v; use errors.Is", be.Op),
			})
		}
		return true
	})
	return out
}

// allocFuncs are the machine's fetch-execute loops — the plain and
// traced dispatch twins — and its data-access probe with the helpers
// that inline to it, which must stay allocation-free: an allocation
// there shows up in every cycle, or every simulated load and store, of
// every warm benchmark.
var allocFuncs = map[string]bool{
	"steps": true, "stepsTraced": true,
	"readData": true, "writeData": true, "rd": true, "wr": true,
}

// recvIsMachine reports whether the function's receiver is Machine or
// *Machine.
func recvIsMachine(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return false
	}
	t := fd.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	id, ok := t.(*ast.Ident)
	return ok && id.Name == "Machine"
}

// checkStepsAllocs flags allocating constructs inside the
// fetch-execute loops.
func checkStepsAllocs(fset *token.FileSet, pf parsedFile) []finding {
	if pf.pkg != "machine" {
		return nil
	}
	var out []finding
	for _, decl := range pf.file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || !allocFuncs[fd.Name.Name] || !recvIsMachine(fd) {
			continue
		}
		flag := func(n ast.Node, what string) {
			out = append(out, finding{
				pos: fset.Position(n.Pos()),
				msg: fmt.Sprintf("%s in %s, which must not allocate", what, fd.Name.Name),
			})
		}
		// A struct literal used by value lives on the stack; the
		// heap-allocating forms are &T{...} and slice/map literals.
		taken := map[*ast.CompositeLit]bool{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if id, ok := x.Fun.(*ast.Ident); ok {
					switch id.Name {
					case "append", "make", "new":
						flag(n, id.Name+" call")
					}
				}
			case *ast.UnaryExpr:
				if cl, ok := x.X.(*ast.CompositeLit); x.Op == token.AND && ok {
					taken[cl] = true
					flag(n, "address of composite literal")
				}
			case *ast.CompositeLit:
				switch x.Type.(type) {
				case *ast.ArrayType, *ast.MapType:
					if !taken[x] {
						flag(n, "slice or map literal")
					}
				}
			case *ast.FuncLit:
				flag(n, "function literal")
				return false
			case *ast.GoStmt:
				flag(n, "go statement")
			case *ast.DeferStmt:
				flag(n, "defer statement")
			}
			return true
		})
	}
	return out
}

// leaseCalls are the method names that hand a pooled machine to the
// caller; closeCalls are the names that give it back.
var (
	leaseCalls = map[string]bool{"Begin": true, "Acquire": true}
	closeCalls = map[string]bool{"Close": true, "Release": true}
)

// responseWriterParams collects the names of a function's
// http.ResponseWriter parameters.
func responseWriterParams(ft *ast.FuncType) map[string]bool {
	writers := map[string]bool{}
	if ft.Params == nil {
		return writers
	}
	for _, field := range ft.Params.List {
		se, ok := field.Type.(*ast.SelectorExpr)
		if !ok || se.Sel.Name != "ResponseWriter" {
			continue
		}
		if id, ok := se.X.(*ast.Ident); !ok || id.Name != "http" {
			continue
		}
		for _, n := range field.Names {
			if n.Name != "_" {
				writers[n.Name] = true
			}
		}
	}
	return writers
}

// checkMachineAcrossWrite enforces the kcmd handler discipline: a
// function that holds both a network connection (an
// http.ResponseWriter parameter) and a pooled machine (a .Begin or
// .Acquire call) must release the machine — a non-deferred .Close or
// .Release — before the writer is touched or passed anywhere. A
// deferred Close holds the machine to function end, so any writer use
// after the lease counts. A slow client must never hold a machine
// hostage; handlers delegate to writer-free run functions instead.
func checkMachineAcrossWrite(fset *token.FileSet, pf parsedFile) []finding {
	var out []finding
	for _, decl := range pf.file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		writers := responseWriterParams(fd.Type)
		if len(writers) == 0 {
			continue
		}

		// Deferred statements do not release (or lease) anything
		// before function end; note their extents to skip them.
		var deferred [][2]token.Pos
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if ds, ok := n.(*ast.DeferStmt); ok {
				deferred = append(deferred, [2]token.Pos{ds.Pos(), ds.End()})
			}
			return true
		})
		inDefer := func(p token.Pos) bool {
			for _, d := range deferred {
				if d[0] <= p && p < d[1] {
					return true
				}
			}
			return false
		}

		// First live lease, first live release after it, and every
		// writer mention in between (in source order).
		lease, release := token.NoPos, token.NoPos
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			ce, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			se, ok := ce.Fun.(*ast.SelectorExpr)
			if !ok || inDefer(ce.Pos()) {
				return true
			}
			switch {
			case leaseCalls[se.Sel.Name] && !lease.IsValid():
				lease = ce.Pos()
			case closeCalls[se.Sel.Name] && lease.IsValid() && !release.IsValid() && ce.Pos() > lease:
				release = ce.Pos()
			}
			return true
		})
		if !lease.IsValid() {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || !writers[id.Name] {
				return true
			}
			if id.Pos() > lease && (!release.IsValid() || id.Pos() < release) {
				out = append(out, finding{
					pos: fset.Position(id.Pos()),
					msg: fmt.Sprintf("pooled machine leased at line %d is held across this use of %s; "+
						"release or park it before touching the network (see the kcmd handler discipline)",
						fset.Position(lease).Line, id.Name),
				})
			}
			return true
		})
	}
	return out
}

// kindLabel extracts the trace.Kind constant named by a case label, if
// any. A selector trace.KX counts everywhere; a bare KX counts only
// inside package trace, where the constants are unqualified — other
// packages' K-prefixed names (e.g. the WAM cell kinds) never collide.
func kindLabel(e ast.Expr, pkg string, kinds map[string]bool) (string, bool) {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok && id.Name == "trace" && kinds[x.Sel.Name] {
			return x.Sel.Name, true
		}
	case *ast.Ident:
		if pkg == "trace" && kinds[x.Name] {
			return x.Name, true
		}
	}
	return "", false
}

// checkKindSwitches flags switches over trace.Kind that neither carry
// a default clause nor enumerate every Kind constant.
func checkKindSwitches(fset *token.FileSet, pf parsedFile, kinds map[string]bool) []finding {
	if len(kinds) == 0 {
		return nil
	}
	var out []finding
	ast.Inspect(pf.file, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok {
			return true
		}
		covered := map[string]bool{}
		hasDefault, isKindSwitch := false, false
		for _, cl := range sw.Body.List {
			cc := cl.(*ast.CaseClause)
			if cc.List == nil {
				hasDefault = true
				continue
			}
			for _, e := range cc.List {
				if name, ok := kindLabel(e, pf.pkg, kinds); ok {
					isKindSwitch = true
					covered[name] = true
				}
			}
		}
		if !isKindSwitch || hasDefault || len(covered) == len(kinds) {
			return true
		}
		var missing []string
		for k := range kinds {
			if !covered[k] {
				missing = append(missing, k)
			}
		}
		sort.Strings(missing)
		out = append(out, finding{
			pos: fset.Position(sw.Switch),
			msg: fmt.Sprintf("switch over trace.Kind has no default and misses %s",
				strings.Join(missing, ", ")),
		})
		return true
	})
	return out
}
