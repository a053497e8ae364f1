package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// opKind names the five client operations. An op is one single-shot
// query, one enumeration driven by /v1/next to exhaustion, one NDJSON
// stream read to its terminal line, or one tenant assert or retract.
type opKind string

const (
	opQuery   opKind = "query"
	opEnum    opKind = "enum"
	opStream  opKind = "stream"
	opAssert  opKind = "assert"
	opRetract opKind = "retract"
)

// op is one generated client operation with its expected outcome.
// Every field is plain data, so a sequence of ops serializes to bytes
// (the determinism self-test compares those bytes).
type op struct {
	Kind    opKind `json:"kind"`
	Program string `json:"program"`
	Tenant  string `json:"tenant,omitempty"`
	// Text is the goal, or the clause of an assert or retract.
	Text string `json:"text"`
	// Budget is the per-slice step budget of an enumeration.
	Budget uint64 `json:"budget,omitempty"`
	Want   want   `json:"want"`
}

// generator yields one client's endless, seed-determined op sequence.
type generator interface{ next() op }

// plan is a workload instantiated for one seed: the programs the
// daemon serves, the warm-up pass set-up runs, and a generator per
// closed-loop client.
type plan struct {
	programs map[string]string
	warmup   []op
	gen      func(client, clients int) generator
}

// workload is one traffic mix; why is recorded in BENCHMARK.json too.
type workload struct {
	name string
	why  string
	plan func(seed int64) plan
}

var workloads = []workload{
	{
		name: "serve-small",
		why:  "4 hot short goals (nrev30, queens6, member via next, member stream): stresses server, wire, lease and readback; bypasses compile and the simulator's long runs",
		plan: serveSmall,
	},
	{
		name: "sim-long",
		why:  "zebra, queens8 streamed to all 92, nrev300: the machine runs over 90% of each op; stresses the simulator hot loop, bypasses per-request overhead",
		plan: simLong,
	},
	{
		name: "goal-churn",
		why:  "Zipf(1.1) over 16 nrev/app/member goals, 4 warmed: compile and machine build land in setup_s; timed ops meet at most 12 first sights (core.first_sight_frac ~2e-4); the bound keeps RSS steady",
		plan: goalChurn,
	},
	{
		name: "tenant-rw",
		why:  "8 tenants on 2 machines, streams beside assert/retract pairs: stresses dyndb and tenant leases, bypasses the static image map; pairing keeps 16 clauses per tenant",
		plan: tenantRW,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// clientRNG gives each closed-loop client its own stream, so a client's
// op sequence depends on the seed and its index alone.
func clientRNG(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(client) + 1))
}

// mix draws ops from a fixed set with fixed weights.
type mix struct {
	rng *rand.Rand
	ops []op
	cum []float64
}

func newMix(rng *rand.Rand, ops []op, weights []float64) *mix {
	m := &mix{rng: rng, ops: ops}
	total := 0.0
	for _, w := range weights {
		total += w
		m.cum = append(m.cum, total)
	}
	for i := range m.cum {
		m.cum[i] /= total
	}
	return m
}

func (m *mix) next() op {
	i := sort.SearchFloat64s(m.cum, m.rng.Float64())
	if i >= len(m.ops) {
		i = len(m.ops) - 1
	}
	return m.ops[i]
}

// Program sources. Each workload's daemon serves only the ones it uses.
const listsSrc = `
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).
`

const queensSrc = `
queens(N, Qs) :- range(1, N, Ns), solve(Ns, [], Qs).
solve([], Qs, Qs).
solve(Unplaced, Safe, Qs) :-
    sel(Unplaced, Q, Rest),
    \+ attack(Q, Safe),
    solve(Rest, [Q | Safe], Qs).
attack(X, Xs) :- att(X, 1, Xs).
att(X, N, [Y | _]) :- X is Y + N.
att(X, N, [Y | _]) :- X is Y - N.
att(X, N, [_ | Ys]) :- N1 is N + 1, att(X, N1, Ys).
sel([X | Xs], X, Xs).
sel([Y | Ys], X, [Y | Zs]) :- sel(Ys, X, Zs).
range(N, N, [N]) :- !.
range(M, N, [M | Ns]) :- M < N, M1 is M + 1, range(M1, N, Ns).
`

const zebraSrc = `
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).
next_to(A, B, L) :- right_of(A, B, L).
next_to(A, B, L) :- right_of(B, A, L).
right_of(R, L, [L, R | _]).
right_of(R, L, [_ | T]) :- right_of(R, L, T).
first(X, [X | _]).
middle(X, [_, _, X, _, _]).
zebra(Owner, Houses) :-
    Houses = [_, _, _, _, _],
    member(house(red, english, _, _, _), Houses),
    right_of(house(green, _, _, _, _), house(ivory, _, _, _, _), Houses),
    first(house(_, norwegian, _, _, _), Houses),
    middle(house(_, _, milk, _, _), Houses),
    member(house(_, spanish, _, _, dog), Houses),
    member(house(green, _, coffee, _, _), Houses),
    member(house(_, ukrainian, tea, _, _), Houses),
    member(house(_, _, _, oldgold, snails), Houses),
    member(house(yellow, _, _, kools, _), Houses),
    next_to(house(_, _, _, chesterfield, _), house(_, _, _, _, fox), Houses),
    next_to(house(_, _, _, kools, _), house(_, _, _, _, horse), Houses),
    member(house(_, _, orangejuice, luckystrike, _), Houses),
    member(house(_, japanese, _, parliament, _), Houses),
    next_to(house(blue, _, _, _, _), house(_, norwegian, _, _, _), Houses),
    member(house(_, _, water, _, _), Houses),
    member(house(_, Owner, _, _, zebra), Houses).
`

// factsPerTenant is the clause count every tenant's fact/1 chain holds
// between mutations: the source's initial facts, kept fixed by pairing
// each assert with a retract of the tenant's oldest fact.
const factsPerTenant = 16

func factsSrc() string {
	var b strings.Builder
	b.WriteString(":- dynamic(fact/1).\n")
	for i := 1; i <= factsPerTenant; i++ {
		fmt.Fprintf(&b, "fact(%d).\n", i)
	}
	return b.String()
}

// randInts returns n seeded integers in [0, 1000).
func randInts(rng *rand.Rand, n int) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = rng.Intn(1000)
	}
	return xs
}

// randAtoms returns n distinct seeded lower-case atoms.
func randAtoms(rng *rand.Rand, n int) []string {
	seen := map[string]bool{}
	out := make([]string, 0, n)
	for len(out) < n {
		a := fmt.Sprintf("a%d", rng.Intn(10000))
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

func intStrings(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = strconv.Itoa(x)
	}
	return out
}

// listText renders elements as a Prolog list, in the daemon's own
// rendering: "[1,2,3]".
func listText(elems []string) string {
	return "[" + strings.Join(elems, ",") + "]"
}

func reversed(xs []string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[len(xs)-1-i] = x
	}
	return out
}

// nrevOp is a single-shot naive reverse; the oracle is the reversed list.
func nrevOp(elems []string) op {
	return op{Kind: opQuery, Program: "lists",
		Text: "nrev(" + listText(elems) + ", R).",
		Want: want{Var: "R", Values: []string{listText(reversed(elems))}}}
}

// appOp is a single-shot concatenation; the oracle is A followed by B.
func appOp(a, b []string) op {
	return op{Kind: opQuery, Program: "lists",
		Text: "app(" + listText(a) + ", " + listText(b) + ", R).",
		Want: want{Var: "R", Values: []string{listText(append(append([]string{}, a...), b...))}}}
}

// memberOp enumerates member/2 over a list: the oracle is the list's
// elements in list order (only the first for a single-shot query).
func memberOp(kind opKind, elems []string, budget uint64) op {
	vals := elems
	if kind == opQuery {
		vals = elems[:1]
	}
	return op{Kind: kind, Program: "lists", Budget: budget,
		Text: "member(X, " + listText(elems) + ").",
		Want: want{Var: "X", Values: append([]string{}, vals...)}}
}

// serveSmall is the per-request-overhead workload: four hot goals
// whose simulated runs take microseconds, so the server, wire, lease
// and readback dominate every op.
func serveSmall(seed int64) plan {
	rng := rand.New(rand.NewSource(seed))
	hot := []op{
		nrevOp(intStrings(randInts(rng, 30))),
		{Kind: opQuery, Program: "queens", Text: "queens(6, Qs).",
			Want: want{Var: "Qs", Queens: 6, Count: 1}},
		memberOp(opEnum, randAtoms(rng, 8), 24),
		memberOp(opStream, randAtoms(rng, 10), 0),
	}
	return plan{
		programs: map[string]string{"lists": listsSrc, "queens": queensSrc},
		warmup:   hot,
		gen: func(client, _ int) generator {
			return newMix(clientRNG(seed, client), hot, serveSmallWeights)
		},
	}
}

// serveSmallWeights keep the latency 99th percentile (and the median
// the detail line prints) inside one op kind's distribution rather than
// in the gap between two kinds, where a small shift in the drawn mix
// would move them a long way.
var serveSmallWeights = []float64{0.4, 0.2, 0.15, 0.25}

// simLong is the simulator-bound workload: every op runs for
// milliseconds of host time inside the machine.
func simLong(seed int64) plan {
	rng := rand.New(rand.NewSource(seed))
	ops := []op{
		{Kind: opQuery, Program: "zebra", Text: "zebra(Owner, Houses).",
			Want: want{Var: "Owner", Values: []string{"japanese"}}},
		{Kind: opStream, Program: "queens", Text: "queens(8, Qs).",
			Want: want{Var: "Qs", Queens: 8, Count: 92}},
		nrevOp(intStrings(randInts(rng, 300))),
	}
	return plan{
		programs: map[string]string{"lists": listsSrc, "queens": queensSrc, "zebra": zebraSrc},
		warmup:   ops,
		gen: func(client, _ int) generator {
			return newMix(clientRNG(seed, client), ops, simLongWeights)
		},
	}
}

// simLongWeights follow the same rule: the median falls among the
// zebra and nrev300 ops, which take about the same time, and the 99th
// percentile in the tail of the queens8 streams, which take twice that.
var simLongWeights = []float64{0.4, 0.2, 0.4}

// Goal-churn universe: churnGoals distinct goal texts ranked by a
// Zipf(churnSkew) draw; set-up warms the churnHot most popular ones.
// The universe is bounded because the daemon never evicts an image or
// its machines, so every distinct goal costs resident memory. The timed
// phase therefore meets at most churnGoals-churnHot first sights: the
// compile and machine-build cost reaches the end-to-end metrics mainly
// through setup_s and peak_rss_mb.
const (
	churnGoals = 16
	churnSkew  = 1.1
	churnHot   = 4
)

// churnGoal is the goal of one rank. Its shape and list lengths depend
// on the rank alone, so the cost of the universe is the same for every
// seed; only the literal elements are drawn.
func churnGoal(rng *rand.Rand, rank int) op {
	n := 6 + rank*7%19
	switch rank % 3 {
	case 0:
		return nrevOp(intStrings(randInts(rng, n)))
	case 1:
		return appOp(intStrings(randInts(rng, n)), intStrings(randInts(rng, 1+rank%5)))
	default:
		return memberOp(opQuery, randAtoms(rng, n), 0)
	}
}

type zipfGen struct {
	z     *rand.Zipf
	goals []op
}

func (g *zipfGen) next() op { return g.goals[g.z.Uint64()] }

func goalChurn(seed int64) plan {
	rng := rand.New(rand.NewSource(seed))
	goals := make([]op, churnGoals)
	for r := range goals {
		goals[r] = churnGoal(rng, r)
	}
	return plan{
		programs: map[string]string{"lists": listsSrc},
		warmup:   goals[:churnHot],
		gen: func(client, _ int) generator {
			r := clientRNG(seed, client)
			return &zipfGen{z: rand.NewZipf(r, churnSkew, 1, churnGoals-1), goals: goals}
		},
	}
}

// Tenant-rw: tenantCount tenants share the pool's machines; each
// closed-loop client owns the tenants whose index it equals modulo the
// client count, so every tenant sees one client's ops in order and a
// pure-Go model of its facts is exact.
const (
	tenantCount     = 8
	tenantQueryFrac = 0.7
)

// tenantModel mirrors one tenant's fact/1 clauses in clause order.
type tenantModel struct {
	name  string
	facts []int
	seq   int
}

type tenantGen struct {
	rng     *rand.Rand
	tenants []*tenantModel
}

func initialFacts() []int {
	xs := make([]int, factsPerTenant)
	for i := range xs {
		xs[i] = i + 1
	}
	return xs
}

func tenantQuery(t string, facts []int) op {
	return op{Kind: opStream, Program: "facts", Tenant: t, Text: "fact(X).",
		Want: want{Var: "X", Values: intStrings(facts)}}
}

// next draws a tenant, then either queries its facts or mutates it:
// an assert when it holds factsPerTenant clauses, otherwise a retract
// of its oldest fact, so the chain length stays fixed.
func (g *tenantGen) next() op {
	t := g.tenants[g.rng.Intn(len(g.tenants))]
	if g.rng.Float64() < tenantQueryFrac {
		return tenantQuery(t.name, t.facts)
	}
	if len(t.facts) == factsPerTenant {
		t.seq++
		v := t.seq*1000 + g.rng.Intn(1000)
		t.facts = append(t.facts, v)
		return op{Kind: opAssert, Program: "facts", Tenant: t.name, Text: fmt.Sprintf("fact(%d)", v)}
	}
	v := t.facts[0]
	t.facts = append([]int{}, t.facts[1:]...)
	return op{Kind: opRetract, Program: "facts", Tenant: t.name, Text: fmt.Sprintf("fact(%d)", v)}
}

func tenantName(i int) string { return fmt.Sprintf("t%d", i) }

func tenantRW(seed int64) plan {
	var warm []op
	for i := 0; i < tenantCount; i++ {
		warm = append(warm, tenantQuery(tenantName(i), initialFacts()))
	}
	return plan{
		programs: map[string]string{"facts": factsSrc()},
		warmup:   warm,
		gen: func(client, clients int) generator {
			g := &tenantGen{rng: clientRNG(seed, client)}
			for i := client; i < tenantCount; i += clients {
				g.tenants = append(g.tenants, &tenantModel{name: tenantName(i), facts: initialFacts()})
			}
			return g
		},
	}
}
