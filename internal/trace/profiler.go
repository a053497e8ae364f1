package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Special bucket names used when cycles cannot be attributed to a
// user predicate.
const (
	BootName  = "<boot>"  // session bootstrap (bottom choice-point save)
	RedoName  = "<redo>"  // host-forced backtracks (RunFor after a solution)
	FaultName = "<fault>" // cycles charged before a fetch fault stopped a step
	GCName    = "<gc>"    // heap collection (KGCEnd cycles)
)

// Profiler attributes simulated microcycles to predicates. Flat
// attribution is exact: every KInstr event's cycles go to the
// predicate owning the instruction's address, and the
// boot/redo/fault/gc events cover the remaining machine cycles, so
// Total() equals the
// machine's cycle counter — internal/bench's conservation test pins
// this for the whole benchmark suite.
//
// Cumulative attribution follows a shadow call stack reconstructed
// from the call/execute/proceed chain, reconciled against
// choice-point events so backtracking unwinds it correctly. The stack
// feeds a pprof-style folded-stack map for flamegraphs.
//
// A Profiler is bound to one machine and is not safe for concurrent
// use.
type Profiler struct {
	preds *PredTable

	self  []uint64 // per predicate index
	calls []uint64 // KCall+KExecute entries per predicate index
	sysSelf, sysCalls,
	boot, redo, fault, gc uint64

	// Shadow call stack of predicate indices (-1 = system), plus the
	// choice-point depth records that let deep fails truncate it.
	stack   []int32
	cpDepth []cpEntry

	folded   map[string]uint64
	key      string // cached ";"-joined stack key
	keyValid bool
}

type cpEntry struct {
	addr  uint32 // choice-point frame address
	depth int32  // len(stack) when the frame was created
}

// NewProfiler creates an empty profiler. The machine binds the
// predicate table when the hook is installed (see PredBinder).
func NewProfiler() *Profiler {
	return &Profiler{folded: make(map[string]uint64)}
}

// BindPreds installs the predicate table; counters are sized to it.
func (p *Profiler) BindPreds(t *PredTable) {
	p.preds = t
	if n := t.Len(); len(p.self) < n {
		p.self = make([]uint64, n)
		p.calls = make([]uint64, n)
	}
}

// Reset clears all accumulated attribution and the shadow stack.
func (p *Profiler) Reset() {
	for i := range p.self {
		p.self[i] = 0
		p.calls[i] = 0
	}
	p.sysSelf, p.sysCalls, p.boot, p.redo, p.fault, p.gc = 0, 0, 0, 0, 0, 0
	p.stack = p.stack[:0]
	p.cpDepth = p.cpDepth[:0]
	p.folded = make(map[string]uint64)
	p.keyValid = false
}

// Emit consumes one trace event (see Hook).
func (p *Profiler) Emit(ev Event) {
	switch ev.Kind {
	case KInstr:
		idx := int32(p.preds.Locate(ev.P))
		// Self attribution is positional and exact.
		if idx >= 0 {
			p.self[idx] += ev.Cycles
		} else {
			p.sysSelf += ev.Cycles
		}
		// Repair the shadow stack if an unmodeled control transfer
		// left a stale frame on top: the running predicate must be the
		// top of stack.
		if n := len(p.stack); n == 0 {
			p.push(idx)
		} else if p.stack[n-1] != idx {
			p.stack[n-1] = idx
			p.keyValid = false
		}
		if ev.Cycles != 0 {
			p.folded[p.stackKey()] += ev.Cycles
		}
	case KCall:
		idx := int32(p.preds.Locate(ev.Addr))
		p.countCall(idx)
		p.push(idx)
	case KExecute:
		idx := int32(p.preds.Locate(ev.Addr))
		p.countCall(idx)
		if n := len(p.stack); n > 0 {
			p.stack[n-1] = idx
			p.keyValid = false
		} else {
			p.push(idx)
		}
	case KProceed:
		if n := len(p.stack); n > 1 {
			p.stack = p.stack[:n-1]
			p.keyValid = false
		}
	case KCPCreate:
		// Frame addresses below the new top are gone (popped or cut
		// without our having seen every pop); drop their records.
		p.dropCP(ev.Addr, true)
		p.cpDepth = append(p.cpDepth, cpEntry{addr: ev.Addr, depth: int32(len(p.stack))})
	case KCPRestore:
		for i := len(p.cpDepth) - 1; i >= 0; i-- {
			if p.cpDepth[i].addr == ev.Addr {
				// Keep the entry: the choice point stays live for the
				// next retry.
				p.cpDepth = p.cpDepth[:i+1]
				if d := p.cpDepth[i].depth; int(d) <= len(p.stack) {
					p.stack = p.stack[:d]
					p.keyValid = false
				}
				break
			}
		}
	case KCPPop:
		p.dropCP(ev.Addr, true)
	case KCut:
		p.dropCP(ev.Addr, false)
	case KBoot:
		p.boot += ev.Cycles
		// A fresh session: the stack restarts, and choice points
		// created during bootstrap (before this event) belong to the
		// empty stack.
		p.stack = p.stack[:0]
		p.keyValid = false
		for i := range p.cpDepth {
			p.cpDepth[i].depth = 0
		}
	case KRedo:
		p.redo += ev.Cycles
	case KFault:
		p.fault += ev.Cycles
	case KGCEnd:
		p.gc += ev.Cycles
	case KReset:
		p.Reset()
	default:
		// Memory-system and session events carry no attributable
		// cycles of their own (their cost rides on the owning KInstr).
	}
}

func (p *Profiler) countCall(idx int32) {
	if idx >= 0 {
		p.calls[idx]++
	} else {
		p.sysCalls++
	}
}

func (p *Profiler) push(idx int32) {
	p.stack = append(p.stack, idx)
	p.keyValid = false
}

// dropCP discards choice-point records at or above addr (orEqual) or
// strictly above it (cut keeps the new top).
func (p *Profiler) dropCP(addr uint32, orEqual bool) {
	i := len(p.cpDepth)
	for i > 0 {
		a := p.cpDepth[i-1].addr
		if a > addr || (orEqual && a == addr) {
			i--
			continue
		}
		break
	}
	p.cpDepth = p.cpDepth[:i]
}

// stackKey returns the cached ";"-joined folded-stack key, root
// first, rebuilding it only after the stack changed.
func (p *Profiler) stackKey() string {
	if p.keyValid {
		return p.key
	}
	var b strings.Builder
	for i, idx := range p.stack {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(p.preds.Name(int(idx)))
	}
	p.key = b.String()
	p.keyValid = true
	return p.key
}

// Total returns all attributed cycles. On a consistent machine this
// equals Stats.Cycles exactly.
func (p *Profiler) Total() uint64 {
	t := p.boot + p.redo + p.fault + p.gc + p.sysSelf
	for _, c := range p.self {
		t += c
	}
	return t
}

// Row is one predicate's attribution in a profile report.
type Row struct {
	Name  string
	Self  uint64 // cycles in the predicate's own instructions
	Cum   uint64 // cycles with the predicate anywhere on the stack
	Calls uint64 // call/execute entries
}

// Rows returns one row per predicate (plus the special buckets) with
// nonzero attribution, unsorted. Cumulative cycles are derived from
// the folded-stack map, counting each stack's cycles once per
// distinct predicate on it.
func (p *Profiler) Rows() []Row {
	cum := make(map[string]uint64, len(p.self))
	seen := make(map[string]bool, 8)
	for key, cycles := range p.folded {
		for k := range seen {
			delete(seen, k)
		}
		for _, name := range strings.Split(key, ";") {
			// A recursive predicate appears on the stack many times but
			// its cumulative share of these cycles is counted once.
			if name == "" || seen[name] {
				continue
			}
			seen[name] = true
			cum[name] += cycles
		}
	}
	rows := make([]Row, 0, len(p.self)+4)
	for i, c := range p.self {
		name := p.preds.Name(i)
		if c == 0 && p.calls[i] == 0 && cum[name] == 0 {
			continue
		}
		rows = append(rows, Row{Name: name, Self: c, Cum: cum[name], Calls: p.calls[i]})
	}
	if p.sysSelf != 0 || p.sysCalls != 0 || cum[SystemName] != 0 {
		rows = append(rows, Row{Name: SystemName, Self: p.sysSelf, Cum: cum[SystemName], Calls: p.sysCalls})
	}
	if p.boot != 0 {
		rows = append(rows, Row{Name: BootName, Self: p.boot, Cum: p.boot})
	}
	if p.redo != 0 {
		rows = append(rows, Row{Name: RedoName, Self: p.redo, Cum: p.redo})
	}
	if p.fault != 0 {
		rows = append(rows, Row{Name: FaultName, Self: p.fault, Cum: p.fault})
	}
	if p.gc != 0 {
		rows = append(rows, Row{Name: GCName, Self: p.gc, Cum: p.gc})
	}
	return rows
}

// FoldedMap returns the folded-stack cycle map (key: ";"-joined
// predicate names root-first). The map is live; callers must not
// mutate it.
func (p *Profiler) FoldedMap() map[string]uint64 { return p.folded }

// WriteFolded writes the folded stacks in the collapsed format
// flamegraph tools consume: "root;...;leaf <cycles>", sorted by key.
func (p *Profiler) WriteFolded(w io.Writer) error {
	keys := make([]string, 0, len(p.folded))
	for k := range p.folded {
		if k != "" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "%s %d\n", k, p.folded[k]); err != nil {
			return err
		}
	}
	return nil
}

// RenderProfile writes the flat table (sorted by self cycles) and the
// cumulative table (sorted by cumulative cycles) for the given rows.
func RenderProfile(w io.Writer, rows []Row, total uint64) {
	if total == 0 {
		total = 1
	}
	flat := append([]Row(nil), rows...)
	sort.Slice(flat, func(i, j int) bool {
		if flat[i].Self != flat[j].Self {
			return flat[i].Self > flat[j].Self
		}
		return flat[i].Name < flat[j].Name
	})
	fmt.Fprintf(w, "flat cycles by predicate:\n")
	fmt.Fprintf(w, "  %12s %6s %10s  %s\n", "self", "self%", "calls", "predicate")
	for _, r := range flat {
		fmt.Fprintf(w, "  %12d %5.1f%% %10d  %s\n",
			r.Self, 100*float64(r.Self)/float64(total), r.Calls, r.Name)
	}
	cum := append([]Row(nil), rows...)
	sort.Slice(cum, func(i, j int) bool {
		if cum[i].Cum != cum[j].Cum {
			return cum[i].Cum > cum[j].Cum
		}
		return cum[i].Name < cum[j].Name
	})
	fmt.Fprintf(w, "cumulative cycles by predicate:\n")
	fmt.Fprintf(w, "  %12s %6s  %s\n", "cum", "cum%", "predicate")
	for _, r := range cum {
		fmt.Fprintf(w, "  %12d %5.1f%%  %s\n",
			r.Cum, 100*float64(r.Cum)/float64(total), r.Name)
	}
}
