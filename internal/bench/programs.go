// Package bench holds the PLM benchmark suite (section 4 of the
// paper: the U.C. Berkeley extension of Warren's benchmark set) and
// the harness that regenerates every table of the evaluation section.
//
// Each program comes in two variants, exactly as in the paper: the
// Table 2 version, where I/O predicates are compiled as unit clauses
// costing the 5-cycle minimum call/return sequence, and the Table 3
// "starred" version with all I/O removed to measure pure inferencing.
// The assert/retract-based program of the original suite could not be
// run on the prototype either (no assert in the runtime library) and
// is likewise absent here.
package bench

import (
	"strconv"
	"strings"
)

// Program is one benchmark of the suite.
type Program struct {
	Name      string
	Source    string // Prolog program text
	Query     string // Table 2 goal (with I/O)
	PureQuery string // Table 3 goal (I/O stripped)
	// Paper-reported inference counts (Table 2 / Table 3 columns),
	// recorded for EXPERIMENTS.md comparison; our own counting uses
	// the same definition but reconstructed benchmark sources, so
	// small deviations are expected.
	PaperInferences     int
	PaperInferencesPure int
	// Paper-reported timings.
	PaperKCMms     float64 // Table 2 KCM column
	PaperPLMms     float64 // Table 2 PLM column
	PaperQms       float64 // Table 3 QUINTUS column (0 = too small)
	PaperKCMmsPure float64 // Table 3 KCM column
}

const appendLib = `
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
`

const nrevLib = appendLib + `
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
`

const derivLib = `
d(U + V, X, DU + DV) :- !, d(U, X, DU), d(V, X, DV).
d(U - V, X, DU - DV) :- !, d(U, X, DU), d(V, X, DV).
d(U * V, X, DU*V + U*DV) :- !, d(U, X, DU), d(V, X, DV).
d(U / V, X, (DU*V - U*DV) / (V^2)) :- !, d(U, X, DU), d(V, X, DV).
d(U ^ N, X, DU*N*U^N1) :- !, integer(N), N1 is N - 1, d(U, X, DU).
d(-U, X, -DU) :- !, d(U, X, DU).
d(exp(U), X, exp(U)*DU) :- !, d(U, X, DU).
d(log(U), X, DU/U) :- !, d(U, X, DU).
d(X, X, 1) :- !.
d(_, _, 0).
`

// Suite is the PLM benchmark suite in the order of the paper's
// tables.
var Suite = []Program{
	{
		Name:            "con1",
		Source:          appendLib,
		Query:           "app([a,b,c], _L, R), write(R), nl.",
		PureQuery:       "app([a,b,c], _L, _R).",
		PaperInferences: 6, PaperInferencesPure: 4,
		PaperKCMms: 0.007, PaperPLMms: 0.023, PaperKCMmsPure: 0.006,
	},
	{
		Name: "con6",
		Source: appendLib + `
con6 :- app([a,b,c,d,e,f], _, _), app([b,c,d,e,f,g], _, _),
        app([c,d,e,f,g,h], _, _), app([d,e,f,g,h,i], _, _),
        app([e,f,g,h,i,j], _, _), app([f,g,h,i,j,k], _, _).
`,
		Query:           "con6.",
		PureQuery:       "app([a,b,c,d,e,f,g,h,i,j,k], _L, _R).",
		PaperInferences: 42, PaperInferencesPure: 12,
		PaperKCMms: 0.059, PaperPLMms: 0.137, PaperKCMmsPure: 0.046,
	},
	{
		Name:            "divide10",
		Source:          derivLib,
		Query:           "d(((((((((x/x)/x)/x)/x)/x)/x)/x)/x)/x, x, E), write(E), nl.",
		PureQuery:       "d(((((((((x/x)/x)/x)/x)/x)/x)/x)/x)/x, x, _E).",
		PaperInferences: 22, PaperInferencesPure: 20,
		PaperKCMms: 0.091, PaperPLMms: 0.380, PaperKCMmsPure: 0.090,
	},
	{
		Name: "hanoi",
		Source: `
hanoi(N) :- han(N, a, b, c).
han(0, _, _, _).
han(N, A, B, C) :- N1 is N - 1, han(N1, A, C, B), mv(A, B), han(N1, C, B, A).
mv(A, B) :- write(A), write(B), nl.

hanoipure(N) :- hanp(N, a, b, c).
hanp(0, _, _, _).
hanp(N, A, B, C) :- N1 is N - 1, hanp(N1, A, C, B), hanp(N1, C, B, A).
`,
		Query:           "hanoi(8).",
		PureQuery:       "hanoipure(8).",
		PaperInferences: 1787, PaperInferencesPure: 767,
		PaperKCMms: 2.795, PaperPLMms: 7.323, PaperQms: 11.6, PaperKCMmsPure: 1.264,
	},
	{
		Name:            "log10",
		Source:          derivLib,
		Query:           "d(log(log(log(log(log(log(log(log(log(log(x)))))))))), x, E), write(E), nl.",
		PureQuery:       "d(log(log(log(log(log(log(log(log(log(log(x)))))))))), x, _E).",
		PaperInferences: 14, PaperInferencesPure: 12,
		PaperKCMms: 0.039, PaperPLMms: 0.109, PaperKCMmsPure: 0.039,
	},
	{
		Name: "mutest",
		Source: appendLib + `
theorem(_, [m, i]).
theorem(Depth, R) :- Depth > 0, D is Depth - 1, theorem(D, S), rules(S, R).
rules(S, R) :- rule1(S, R).
rules(S, R) :- rule2(S, R).
rules(S, R) :- rule3(S, R).
rules(S, R) :- rule4(S, R).
rule1(S, R) :- app(X, [i], S), app(X, [i, u], R).
rule2([m | T], [m | R]) :- app(T, T, R).
rule3(S, R) :- app(X, [i, i, i | T], S), app(X, [u | T], R).
rule4(S, R) :- app(X, [u, u | T], S), app(X, T, R).
`,
		Query:           "theorem(5, [m, u, i, i, u]).",
		PureQuery:       "theorem(5, [m, u, i, i, u]).",
		PaperInferences: 1365, PaperInferencesPure: 1365,
		PaperKCMms: 4.644, PaperPLMms: 12.407, PaperQms: 41.5, PaperKCMmsPure: 4.644,
	},
	{
		Name: "nrev1",
		Source: nrevLib + `
list30([1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,
        16,17,18,19,20,21,22,23,24,25,26,27,28,29,30]).
`,
		Query:           "list30(L), nrev(L, R), write(R), nl.",
		PureQuery:       "list30(L), nrev(L, _R).",
		PaperInferences: 499, PaperInferencesPure: 497,
		PaperKCMms: 0.650, PaperPLMms: 2.660, PaperQms: 3.3, PaperKCMmsPure: 0.649,
	},
	{
		Name:            "ops8",
		Source:          derivLib,
		Query:           "d((x + 1) * ((x^2 + 2) * (x^3 + 3)), x, E), write(E), nl.",
		PureQuery:       "d((x + 1) * ((x^2 + 2) * (x^3 + 3)), x, _E).",
		PaperInferences: 20, PaperInferencesPure: 18,
		PaperKCMms: 0.059, PaperPLMms: 0.214, PaperKCMmsPure: 0.058,
	},
	{
		Name: "palin25",
		Source: nrevLib + `
pal25([a,b,c,d,e,f,g,h,i,j,k,l,m,l,k,j,i,h,g,f,e,d,c,b,a]).
palin(L) :- nrev(L, L).
`,
		Query:           "pal25(L), palin(L), write(yes), nl.",
		PureQuery:       "pal25(L), palin(L).",
		PaperInferences: 325, PaperInferencesPure: 323,
		PaperKCMms: 1.221, PaperPLMms: 3.152, PaperQms: 9.33, PaperKCMmsPure: 1.220,
	},
	{
		Name: "pri2",
		Source: `
primes(Limit, Ps) :- integers(2, Limit, Is), sift(Is, Ps).
integers(Low, High, [Low | Rest]) :- Low =< High, !, M is Low + 1, integers(M, High, Rest).
integers(_, _, []).
sift([], []).
sift([I | Is], [I | Ps]) :- remove(I, Is, New), sift(New, Ps).
remove(_, [], []).
remove(P, [I | Is], Nis) :- 0 is I mod P, !, remove(P, Is, Nis).
remove(P, [I | Is], [I | Nis]) :- remove(P, Is, Nis).
`,
		Query:           "primes(98, Ps), write(Ps), nl.",
		PureQuery:       "primes(98, _Ps).",
		PaperInferences: 1235, PaperInferencesPure: 1233,
		PaperKCMms: 5.240, PaperPLMms: 10.0, PaperQms: 30.5, PaperKCMmsPure: 5.239,
	},
	{
		Name: "qs4",
		Source: `
list50([27,74,17,33,94,18,46,83,65,2,32,53,28,85,99,47,28,82,6,11,
        55,29,39,81,90,37,10,0,66,51,7,21,85,27,31,63,75,4,95,99,
        11,28,61,74,18,92,40,53,59,8]).
qsort([X | L], R, R0) :- partition(L, X, L1, L2),
    qsort(L2, R1, R0), qsort(L1, R, [X | R1]).
qsort([], R, R).
partition([X | L], Y, [X | L1], L2) :- X =< Y, !, partition(L, Y, L1, L2).
partition([X | L], Y, L1, [X | L2]) :- partition(L, Y, L1, L2).
partition([], _, [], []).
`,
		Query:           "list50(L), qsort(L, S, []), write(S), nl.",
		PureQuery:       "list50(L), qsort(L, _S, []).",
		PaperInferences: 612, PaperInferencesPure: 610,
		PaperKCMms: 1.316, PaperPLMms: 4.854, PaperQms: 11.0, PaperKCMmsPure: 1.315,
	},
	{
		Name: "queens",
		Source: `
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
`,
		Query:           "queens(6, Qs), write(Qs), nl.",
		PureQuery:       "queens(6, _Qs).",
		PaperInferences: 687, PaperInferencesPure: 657,
		PaperKCMms: 1.205, PaperPLMms: 4.222, PaperQms: 9.01, PaperKCMmsPure: 1.182,
	},
	{
		Name:            "query",
		Source:          queryDB,
		Query:           "doquery.",
		PureQuery:       "doquery.",
		PaperInferences: 2893, PaperInferencesPure: 2888,
		PaperKCMms: 12.610, PaperPLMms: 17.342, PaperQms: 128.17, PaperKCMmsPure: 12.605,
	},
	{
		Name:            "times10",
		Source:          derivLib,
		Query:           "d(((((((((x*x)*x)*x)*x)*x)*x)*x)*x)*x, x, E), write(E), nl.",
		PureQuery:       "d(((((((((x*x)*x)*x)*x)*x)*x)*x)*x)*x, x, _E).",
		PaperInferences: 22, PaperInferencesPure: 20,
		PaperKCMms: 0.082, PaperPLMms: 0.330, PaperKCMmsPure: 0.081,
	},
}

// queryDB is D.H.D. Warren's database query benchmark: find pairs of
// countries with approximately equal population density, by
// exhaustive search over a 25-country database.
const queryDB = `
doquery :- query0, fail.
doquery.
query0 :-
    density(C1, D1), density(C2, D2),
    D1 > D2, T1 is 20 * D1, T2 is 21 * D2, T1 < T2.

density(C, D) :- pop(C, P), area(C, A), D is P * 100 // A.

% populations in 100000s, areas in 1000s of square miles
pop(china,      8250).
pop(india,      5863).
pop(ussr,       2521).
pop(usa,        2119).
pop(indonesia,  1276).
pop(japan,      1097).
pop(brazil,     1042).
pop(bangladesh,  750).
pop(pakistan,    682).
pop(w_germany,   620).
pop(nigeria,     613).
pop(mexico,      581).
pop(uk,          559).
pop(italy,       554).
pop(france,      525).
pop(philippines, 415).
pop(thailand,    410).
pop(turkey,      383).
pop(egypt,       364).
pop(spain,       352).
pop(poland,      337).
pop(s_korea,     335).
pop(iran,        320).
pop(ethiopia,    272).
pop(argentina,   251).

area(china,     3380).
area(india,     1139).
area(ussr,      8708).
area(usa,       3609).
area(indonesia,  570).
area(japan,      148).
area(brazil,    3288).
area(bangladesh,  55).
area(pakistan,   311).
area(w_germany,   96).
area(nigeria,    373).
area(mexico,     764).
area(uk,          86).
area(italy,      116).
area(france,     213).
area(philippines, 90).
area(thailand,   200).
area(turkey,     296).
area(egypt,      386).
area(spain,      190).
area(poland,     121).
area(s_korea,     37).
area(iran,       628).
area(ethiopia,   350).
area(argentina, 1080).
`

// Nrev300 reverses the list [1..300]. It is not part of the paper's
// suite: it is the miss-heavy run. Its heap outgrows the global
// stack's 1K-word data-cache section, so even a warm run misses on
// most writes and evicts a dirty line each time (91,812 write misses,
// 92,460 write-backs), the fill and write-back path the suite's warm
// runs barely touch. kcmdbench's sim-long serves the same goal shape.
var Nrev300 = func() Program {
	elems := make([]string, 300)
	for i := range elems {
		elems[i] = strconv.Itoa(i + 1)
	}
	q := "nrev([" + strings.Join(elems, ",") + "], _R)."
	return Program{Name: "nrev300", Source: nrevLib, Query: q, PureQuery: q}
}()

// ByName returns a benchmark by name.
func ByName(name string) (Program, bool) {
	for _, p := range Suite {
		if p.Name == name {
			return p, true
		}
	}
	return Program{}, false
}
