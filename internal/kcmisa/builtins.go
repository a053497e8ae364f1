package kcmisa

import "repro/internal/term"

// Built-in predicate numbers used by the Builtin escape instruction.
// On the real machine these escape to the host through the message
// system; here they escape to the Go built-in layer. The Table 2
// measurement protocol of the paper compiles write/1 and nl/0 as unit
// clauses costing 5 cycles (the minimum call/return sequence), which
// the cost model reproduces.
const (
	BIWrite   = iota + 1 // write/1
	BINl                 // nl/0
	BITab                // tab/1: N spaces
	BIWriteln            // writeln/1 (write + nl, convenience)
	BIHalt               // halt/0: stop with success
	BIFunctor            // functor/3
	BIArg                // arg/3
	BIUniv               // =../2
	BICall               // call/1: meta-call of a constructed goal
	NumBuiltins
)

// BuiltinByName maps a source-level predicate indicator to its
// built-in number.
var BuiltinByName = map[term.Indicator]int{
	term.Ind("write", 1):   BIWrite,
	term.Ind("nl", 0):      BINl,
	term.Ind("tab", 1):     BITab,
	term.Ind("writeln", 1): BIWriteln,
	term.Ind("halt", 0):    BIHalt,
	term.Ind("functor", 3): BIFunctor,
	term.Ind("arg", 3):     BIArg,
	term.Ind("=..", 2):     BIUniv,
	term.Ind("call", 1):    BICall,
}

// BuiltinArity returns the number of argument registers a built-in
// consumes.
func BuiltinArity(id int) int {
	for pi, n := range BuiltinByName {
		if n == id {
			return pi.Arity
		}
	}
	return 0
}
