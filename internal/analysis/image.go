package analysis

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"

	"repro/internal/kcmisa"
	"repro/internal/term"
	"repro/internal/word"
)

// PredFacts is everything the whole-image analyzer knows about one
// predicate of a linked image.
type PredFacts struct {
	Name   string `json:"pred"`
	Start  uint32 `json:"start"`
	End    uint32 `json:"end"`
	Instrs int    `json:"instrs"`
	// Reachable marks predicates reachable from the analysis roots
	// through call/execute edges (with a meta-call escape making every
	// entry reachable, since call/1 can construct any goal).
	Reachable bool `json:"reachable"`
	// Mode is the join of every abstract argument vector observed at
	// the predicate's call sites (roots start at AbsAny). Nil for
	// unreachable predicates, which are classified under AbsAny.
	Mode []AbsVal `json:"mode,omitempty"`
	// Det is the determinism classification; the trace oracle holds
	// the analyzer to the Det claims.
	Det DetClass `json:"det"`
	// Calls lists the callee predicates, sorted and deduplicated;
	// External lists call targets outside the analyzed image.
	Calls    []string `json:"calls,omitempty"`
	External []uint32 `json:"external,omitempty"`
	// Builtins lists escape numbers used; MetaCall marks use of the
	// call/1 escape.
	Builtins []string `json:"builtins,omitempty"`
	MetaCall bool     `json:"metacall,omitempty"`
	// DeadNecks are reachable neck instructions that can never
	// materialise a choice point; DeadArms are switch arms the mode
	// analysis proved dead.
	DeadNecks []uint32  `json:"dead_necks,omitempty"`
	DeadArms  []DeadArm `json:"dead_arms,omitempty"`

	pi term.Indicator
}

// PI returns the predicate's indicator.
func (pf *PredFacts) PI() term.Indicator { return pf.pi }

// ImageFacts is the serializable whole-image analysis artifact: one
// PredFacts per predicate (sorted by entry address), the analysis
// roots, and the call-graph SCCs in reverse topological order.
type ImageFacts struct {
	Base  uint32       `json:"base"`
	Top   uint32       `json:"top"`
	Roots []string     `json:"roots"`
	Preds []*PredFacts `json:"preds"`
	SCCs  [][]string   `json:"sccs,omitempty"`
	// Diags records structural problems found while partitioning;
	// predicates involved are classified conservatively (DetUnknown).
	Diags []Diag `json:"-"`

	byPI map[term.Indicator]*PredFacts
}

// Pred returns the facts for one predicate, or nil.
func (f *ImageFacts) Pred(pi term.Indicator) *PredFacts { return f.byPI[pi] }

// PredAt returns the predicate owning a code-space address, using the
// partition ranges. The bootstrap preamble belongs to no predicate.
func (f *ImageFacts) PredAt(addr uint32) (*PredFacts, bool) {
	i := sort.Search(len(f.Preds), func(i int) bool { return f.Preds[i].Start > addr })
	if i == 0 {
		return nil, false
	}
	pf := f.Preds[i-1]
	if addr >= pf.End {
		return nil, false
	}
	return pf, true
}

// WriteJSON serializes the artifact with a stable field order.
func (f *ImageFacts) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// Flat renders the artifact as the stable text form golden tests and
// kcmvet's flag output share: one block per predicate in address
// order.
func (f *ImageFacts) Flat() string {
	var b strings.Builder
	fmt.Fprintf(&b, "image [%d,%d) roots=%s\n", f.Base, f.Top, strings.Join(f.Roots, ","))
	for _, pf := range f.Preds {
		reach := "dead"
		if pf.Reachable {
			reach = "reachable"
		}
		fmt.Fprintf(&b, "pred %s @%d..%d %s det=%s", pf.Name, pf.Start, pf.End, reach, pf.Det)
		if pf.Mode != nil {
			parts := make([]string, len(pf.Mode))
			for i, m := range pf.Mode {
				parts[i] = m.String()
			}
			fmt.Fprintf(&b, " mode=(%s)", strings.Join(parts, ","))
		}
		b.WriteString("\n")
		if len(pf.Calls) > 0 {
			fmt.Fprintf(&b, "  calls %s\n", strings.Join(pf.Calls, " "))
		}
		if len(pf.Builtins) > 0 {
			fmt.Fprintf(&b, "  builtins %s\n", strings.Join(pf.Builtins, " "))
		}
		for _, a := range pf.DeadNecks {
			fmt.Fprintf(&b, "  dead_neck @%d\n", a)
		}
		for _, da := range pf.DeadArms {
			fmt.Fprintf(&b, "  dead_arm @%d %s\n", da.Addr, da.Arm)
		}
	}
	if len(f.SCCs) > 0 {
		for i, scc := range f.SCCs {
			if len(scc) > 1 {
				fmt.Fprintf(&b, "scc %d: %s\n", i, strings.Join(scc, " "))
			}
		}
	}
	return b.String()
}

// CallGraphDot renders the predicate call graph in Graphviz form.
func (f *ImageFacts) CallGraphDot() string {
	var b strings.Builder
	b.WriteString("digraph callgraph {\n")
	for _, pf := range f.Preds {
		attrs := ""
		if !pf.Reachable {
			attrs = " [style=dotted]"
		}
		fmt.Fprintf(&b, "  %q%s;\n", pf.Name, attrs)
		for _, c := range pf.Calls {
			fmt.Fprintf(&b, "  %q -> %q;\n", pf.Name, c)
		}
		if pf.MetaCall {
			fmt.Fprintf(&b, "  %q -> \"call/1\" [style=dashed];\n", pf.Name)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// DeadPreds returns the names of predicates unreachable from the
// roots, sorted.
func (f *ImageFacts) DeadPreds() []string {
	var out []string
	for _, pf := range f.Preds {
		if !pf.Reachable {
			out = append(out, pf.Name)
		}
	}
	sort.Strings(out)
	return out
}

func hashWords(ws []word.Word) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, w := range ws {
		for i := 0; i < 8; i++ {
			buf[i] = byte(uint64(w) >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// imageState carries the working data of one analysis run.
type imageState struct {
	code    []word.Word
	base    uint32
	units   []unitInfo
	facts   *ImageFacts
	byStart map[uint32]*unitInfo
	byPI    map[term.Indicator]*unitInfo
	// syntactic per-pred call facts
	callees  map[term.Indicator][]term.Indicator
	external map[term.Indicator][]uint32
	builtins map[term.Indicator][]int
	metaCall map[term.Indicator]bool
}

func newImageState(code []word.Word, base uint32, entries map[term.Indicator]uint32) *imageState {
	units, ds := partitionEncoded(code, base, entries)
	st := &imageState{
		code: code, base: base, units: units,
		byStart:  map[uint32]*unitInfo{},
		byPI:     map[term.Indicator]*unitInfo{},
		callees:  map[term.Indicator][]term.Indicator{},
		external: map[term.Indicator][]uint32{},
		builtins: map[term.Indicator][]int{},
		metaCall: map[term.Indicator]bool{},
	}
	st.facts = &ImageFacts{
		Base: base, Top: base + uint32(len(code)),
		Diags: ds,
		byPI:  map[term.Indicator]*PredFacts{},
	}
	entryPI := map[uint32]term.Indicator{}
	for i := range units {
		ui := &units[i]
		st.byStart[ui.start] = ui
		st.byPI[ui.pi] = ui
		entryPI[ui.start] = ui.pi
	}
	for i := range units {
		ui := &units[i]
		seenCallee := map[term.Indicator]bool{}
		for _, in := range ui.instrs {
			switch in.Op {
			case kcmisa.Call, kcmisa.Execute:
				if in.L < 0 {
					continue
				}
				if callee, ok := entryPI[uint32(in.L)]; ok {
					if !seenCallee[callee] {
						seenCallee[callee] = true
						st.callees[ui.pi] = append(st.callees[ui.pi], callee)
					}
				} else {
					st.external[ui.pi] = append(st.external[ui.pi], uint32(in.L))
				}
			case kcmisa.Builtin:
				st.builtins[ui.pi] = append(st.builtins[ui.pi], in.N)
				if in.N == kcmisa.BICall {
					st.metaCall[ui.pi] = true
				}
			}
		}
		sort.Slice(st.callees[ui.pi], func(a, b int) bool {
			return st.callees[ui.pi][a].String() < st.callees[ui.pi][b].String()
		})
	}
	return st
}

// reachableFrom computes call-graph reachability. A reachable
// meta-call escape makes every predicate reachable: call/1 can
// construct any goal in the boot table.
func (st *imageState) reachableFrom(roots []term.Indicator) (map[term.Indicator]bool, bool) {
	reach := map[term.Indicator]bool{}
	var stack []term.Indicator
	push := func(pi term.Indicator) {
		if st.byPI[pi] == nil {
			return
		}
		if !reach[pi] {
			reach[pi] = true
			stack = append(stack, pi)
		}
	}
	for _, pi := range roots {
		push(pi)
	}
	meta := false
	for len(stack) > 0 {
		pi := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if st.metaCall[pi] {
			meta = true
		}
		for _, c := range st.callees[pi] {
			push(c)
		}
	}
	if meta {
		for i := range st.units {
			reach[st.units[i].pi] = true
		}
	}
	return reach, meta
}

// sccs runs Tarjan's algorithm over the call graph, predicates in
// address order, returning components in reverse topological order.
func (st *imageState) sccs() [][]term.Indicator {
	index := map[term.Indicator]int{}
	low := map[term.Indicator]int{}
	onStack := map[term.Indicator]bool{}
	var stack []term.Indicator
	var out [][]term.Indicator
	next := 0
	var strong func(pi term.Indicator)
	strong = func(pi term.Indicator) {
		index[pi] = next
		low[pi] = next
		next++
		stack = append(stack, pi)
		onStack[pi] = true
		for _, c := range st.callees[pi] {
			if _, seen := index[c]; !seen {
				strong(c)
				if low[c] < low[pi] {
					low[pi] = low[c]
				}
			} else if onStack[c] && index[c] < low[pi] {
				low[pi] = index[c]
			}
		}
		if low[pi] == index[pi] {
			var comp []term.Indicator
			for {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[top] = false
				comp = append(comp, top)
				if top == pi {
					break
				}
			}
			sort.Slice(comp, func(a, b int) bool { return comp[a].String() < comp[b].String() })
			out = append(out, comp)
		}
	}
	for i := range st.units {
		if _, seen := index[st.units[i].pi]; !seen {
			strong(st.units[i].pi)
		}
	}
	return out
}

// anyMode returns the AbsAny entry vector for a predicate's arity.
func anyMode(arity int) []AbsVal {
	m := make([]AbsVal, arity)
	for i := range m {
		m[i] = AbsAny
	}
	return m
}

func joinModes(dst, src []AbsVal) (out []AbsVal, grew bool) {
	if dst == nil {
		return append([]AbsVal(nil), src...), true
	}
	for i := range dst {
		if i < len(src) && dst[i]|src[i] != dst[i] {
			dst[i] |= src[i]
			grew = true
		}
	}
	return dst, grew
}

// AnalyzeImage runs the whole-image interprocedural analysis over a
// linked image: predicate partition, call graph, the entry-mode
// fixpoint, determinism classification and dead-code reports. roots
// names the externally callable predicates — the boot table for a
// machine image, the query for a closed program; nil defaults to every
// predicate without an in-image caller (library mode), which leaves
// exactly the members of orphaned call-graph cycles dead.
func AnalyzeImage(code []word.Word, base uint32, entries map[term.Indicator]uint32, roots []term.Indicator) *ImageFacts {
	st := newImageState(code, base, entries)
	if roots == nil {
		roots = defaultRoots(st)
	}
	runAnalysis(st, roots)
	return st.facts
}

// defaultRoots returns every predicate no other predicate calls.
// Self-recursion does not count: append/3 calling only itself is an
// interface predicate, not an orphan cycle.
func defaultRoots(st *imageState) []term.Indicator {
	called := map[term.Indicator]bool{}
	for from, cs := range st.callees {
		for _, c := range cs {
			if c != from {
				called[c] = true
			}
		}
	}
	var roots []term.Indicator
	for i := range st.units {
		if !called[st.units[i].pi] {
			roots = append(roots, st.units[i].pi)
		}
	}
	return roots
}

// runAnalysis fills st.facts.
func runAnalysis(st *imageState, roots []term.Indicator) {
	f := st.facts
	reach, meta := st.reachableFrom(roots)
	comps := st.sccs()

	// Entry-mode fixpoint over the reachable predicates.
	modes := map[term.Indicator][]AbsVal{}
	queued := map[term.Indicator]bool{}
	var work []term.Indicator
	enqueue := func(pi term.Indicator) {
		if !queued[pi] {
			queued[pi] = true
			work = append(work, pi)
		}
	}
	rootSet := map[term.Indicator]bool{}
	for _, pi := range roots {
		rootSet[pi] = true
	}
	for i := range st.units {
		pi := st.units[i].pi
		// Roots are callable with anything; with a reachable call/1
		// escape every predicate is, since the constructed goal's
		// arguments are beyond static view.
		if rootSet[pi] || (meta && reach[pi]) {
			modes[pi], _ = joinModes(modes[pi], anyMode(pi.Arity))
		}
		if reach[pi] {
			enqueue(pi)
		}
	}

	modeInfos := map[term.Indicator]*modeInfo{}
	rounds := 0
	maxRounds := 64*len(st.units) + 1024
	for len(work) > 0 {
		pi := work[len(work)-1]
		work = work[:len(work)-1]
		queued[pi] = false
		ui := st.byPI[pi]
		if ui == nil || ui.bad || len(ui.instrs) == 0 {
			continue
		}
		if rounds++; rounds > maxRounds {
			// Defensive bound for fuzzed images: widen everything
			// still queued to AbsAny and finish without re-queueing.
			modes[pi], _ = joinModes(modes[pi], anyMode(pi.Arity))
		}
		mi := analyzeModes(ui.unit(), modes[pi])
		modeInfos[pi] = mi
		for _, cs := range mi.calls {
			callee, ok := st.byStart[uint32(cs.target)]
			if !ok || cs.target < 0 {
				continue
			}
			m, grew := joinModes(modes[callee.pi], cs.args)
			modes[callee.pi] = m
			if grew && reach[callee.pi] && rounds <= maxRounds {
				enqueue(callee.pi)
			}
		}
	}

	// Assemble per-predicate facts.
	for i := range st.units {
		ui := &st.units[i]
		pi := ui.pi
		pf := &PredFacts{
			Name: pi.String(), Start: ui.start, End: ui.end,
			Instrs: len(ui.instrs), Reachable: reach[pi],
			MetaCall: st.metaCall[pi],
			pi:       pi,
		}
		for _, c := range st.callees[pi] {
			pf.Calls = append(pf.Calls, c.String())
		}
		if ext := st.external[pi]; len(ext) > 0 {
			seen := map[uint32]bool{}
			for _, a := range ext {
				if !seen[a] {
					seen[a] = true
					pf.External = append(pf.External, a)
				}
			}
			sort.Slice(pf.External, func(a, b int) bool { return pf.External[a] < pf.External[b] })
		}
		if bs := st.builtins[pi]; len(bs) > 0 {
			seen := map[int]bool{}
			for _, n := range bs {
				if !seen[n] {
					seen[n] = true
					pf.Builtins = append(pf.Builtins, kcmisa.BuiltinName(n))
				}
			}
			sort.Strings(pf.Builtins)
		}
		if ui.bad || len(ui.instrs) == 0 {
			pf.Det = DetUnknown
			f.Preds = append(f.Preds, pf)
			f.byPI[pi] = pf
			continue
		}
		if reach[pi] {
			pf.Mode = modes[pi]
			if pf.Mode == nil {
				pf.Mode = anyMode(pi.Arity)
			}
		}
		mi := modeInfos[pi]
		if mi == nil {
			// Unreachable: classify under the weakest assumption so
			// the claim holds for any caller.
			entry := modes[pi]
			if entry == nil {
				entry = anyMode(pi.Arity)
			}
			mi = analyzeModes(ui.unit(), entry)
		}
		dr := analyzeDet(ui.unit(), mi)
		pf.Det = dr.class
		u := ui.unit()
		for _, idx := range dr.deadNecks {
			pf.DeadNecks = append(pf.DeadNecks, u.Addr(idx))
		}
		pf.DeadArms = dr.deadArms
		f.Preds = append(f.Preds, pf)
		f.byPI[pi] = pf
	}

	for _, pi := range roots {
		if _, ok := f.byPI[pi]; ok {
			f.Roots = append(f.Roots, pi.String())
		}
	}
	sort.Strings(f.Roots)
	for _, comp := range comps {
		names := make([]string, len(comp))
		for i, pi := range comp {
			names[i] = pi.String()
		}
		f.SCCs = append(f.SCCs, names)
	}
}
