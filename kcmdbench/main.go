// Command kcmdbench is the repository's benchmark: an in-process kcmd
// daemon (server.New with daemon defaults) on a loopback port, driven
// by a closed loop of GOMAXPROCS clients over the wire protocol, one
// workload per process. Every reply is checked against an oracle
// computed in Go.
//
//	kcmdbench -workload serve-small -seed 1 -seconds 30 -trace 0
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it
// replays the same seeded ops through each layer's public functions
// under in-memory spans and prints the per-layer metrics. The last
// line of standard output is the result object; the lines before it
// give the run context and every metric with its quartiles, sample
// count or ratio base.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/engine"
)

// End-to-end metrics (-trace 0) and per-layer metrics (-trace 1), with
// their units. BENCHMARK.json lists the same names and units.
var e2eMetrics = []metricDef{
	{"latency_mean_us", "us"},
	{"latency_p99_us", "us"},
	{"ops_per_s", "1/s"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

var layerMetrics = []metricDef{
	{"machine.run_us", "us"},
	{"machine.host_ns_per_instr", "ns/instr"},
	{"core.compile_us", "us"},
	{"machine.new_us", "us"},
	{"engine.machines_built", "count"},
	{"core.compiles", "count"},
	{"core.first_sight_frac", "ratio"},
	{"mmu.page_faults_per_op", "1/op"},
	{"engine.begin_us", "us"},
	{"engine.release_us", "us"},
	{"term.render_us", "us"},
	{"wire.decode_us", "us"},
	{"wire.encode_us", "us"},
	{"server.handle_us", "us"},
	{"client.op_us", "us"},
	{"server.self_us", "us"},
	{"client.transport_us", "us"},
	{"server.sessions_created", "count"},
	{"dyndb.assert_us", "us"},
	{"dyndb.retract_us", "us"},
	{"dyndb.clone_us", "us"},
	{"engine.begin_dyn_us", "us"},
	{"reader.parse_us", "us"},
	{"machine.instrs_per_op", "instr/op"},
	{"machine.cycles_per_op", "cycle/op"},
	{"cache.dcache_hit_ratio", "ratio"},
	{"cache.ccache_hit_ratio", "ratio"},
	{"gc.collections_per_op", "1/op"},
	{"trace.overhead_frac", "ratio"},
}

type metricDef struct{ name, unit string }

// setups is how many times a timed run sets up a daemon; setup_s is
// their median.
const setups = 31

// simOps is the length of the op prefix the simulated counters are
// taken over, on one pooled machine, so they repeat exactly per seed.
const simOps = 64

// runContext is recorded with every result.
type runContext struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Clients    int    `json:"closed_loop_clients"`
	HostCPUs   int    `json:"host_cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	PoolSize   int    `json:"pool_size"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
}

// report is one run's outcome: metric values, their printed detail,
// and the op counts.
type report struct {
	values    map[string]float64
	detail    map[string]any
	attempted int
	failed    int
	firstErr  error
}

func newReport() *report {
	return &report{values: map[string]float64{}, detail: map[string]any{}}
}

func (r *report) timing(name string, xs []float64) {
	t := summarize(xs)
	r.values[name] = t.P50
	r.detail[name] = t
}

func (r *report) ratio(name string, num, base float64) {
	q := newRatio(num, base)
	r.values[name] = q.Value
	r.detail[name] = q
}

func (r *report) count(name string, n float64) {
	r.values[name] = n
	r.detail[name] = n
}

func (r *report) ops(st loopStats) {
	r.attempted += st.attempted
	r.failed += st.failed
	if r.firstErr == nil {
		r.firstErr = st.firstErr
	}
}

func main() {
	name := flag.String("workload", "", "workload: serve-small, sim-long, goal-churn or tenant-rw")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 runs the traced replay and prints per-layer metrics")
	commit := flag.String("commit", "unknown", "git commit recorded in the run context")
	spansDir := flag.String("spans", "", "directory the traced run writes its spans to (none when empty)")
	setupOnly := flag.Bool("setup-only", false, "set up once, print the seconds it took, and exit (one setup_s sample)")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// The contract gives a run 180 s; a hung run fails rather than
	// printing a result.
	watchdog := time.AfterFunc(175*time.Second, func() {
		fmt.Fprintln(os.Stderr, "kcmdbench: run exceeded 175 s")
		os.Exit(3)
	})
	defer watchdog.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	clients := runtime.GOMAXPROCS(0)
	rc := runContext{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *traceFlag == 1,
		Clients: clients, HostCPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		PoolSize: engine.New().Size(), GoVersion: runtime.Version(), Commit: *commit}
	if w.name == "tenant-rw" && clients > tenantCount {
		fmt.Fprintf(os.Stderr, "kcmdbench: tenant-rw needs at most %d clients, have %d\n", tenantCount, clients)
		os.Exit(1)
	}
	p := w.plan(*seed)
	if *setupOnly {
		dm, dt, err := setUp(ctx, p)
		if err == nil {
			err = dm.stop()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "kcmdbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		fmt.Println(dt.Seconds())
		return
	}
	d := time.Duration(*seconds) * time.Second
	var rep *report
	var err error
	if rc.Trace {
		rep, err = tracedRun(ctx, p, clients, d, spanFile(*spansDir, w.name))
	} else {
		rep, err = timedRun(ctx, p, clients, d, func() (float64, error) {
			return setupInChild(ctx, w.name, *seed)
		})
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "kcmdbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	defs := e2eMetrics
	if rc.Trace {
		defs = layerMetrics
	}
	printReport(rc, rep, defs)
}

func spanFile(dir, workload string) string {
	if dir == "" {
		return ""
	}
	return filepath.Join(dir, workload+".jsonl")
}

// timedRun measures the end-to-end metrics: the closed loop for d on
// the process's first daemon, then setups-1 more set-ups for the
// setup_s median, each in a fresh process from setupSample. Every
// daemon so builds its machines in fresh memory, as a newly started
// kcmd does. (Go clears reused memory, so a board freed by an earlier
// daemon would make a later machine.New pay for a 32 MB clear that kcmd
// never pays.)
//
// The loop runs in setups-1 equal segments with one set-up sample
// after each, so the samples are spread over the whole run, as the
// loop's ops are, rather than taken in the second after it: the host's
// speed moves for seconds at a time, and samples bunched together would
// all land in one such stretch. The clients' generators carry over from
// one segment to the next.
func timedRun(ctx context.Context, p plan, clients int, d time.Duration, setupSample func() (float64, error)) (*report, error) {
	dm, dt, err := setUp(ctx, p)
	if err != nil {
		return nil, err
	}
	setupS := []float64{dt.Seconds()}
	gens := generators(p, clients)
	var st loopStats
	var elapsed time.Duration
	var cpu float64
	for i := 1; i < setups; i++ {
		cpu0 := cpuSeconds()
		seg, el := closedLoop(ctx, dm.addr, gens, d/(setups-1))
		cpu += cpuSeconds() - cpu0
		st.add(seg)
		elapsed += el
		s, err := setupSample()
		if err != nil {
			return nil, errors.Join(err, dm.stop())
		}
		setupS = append(setupS, s)
	}
	if err := dm.stop(); err != nil {
		return nil, err
	}
	rss := peakRSSMB()
	rep := newReport()
	rep.ops(st)
	sort.Float64s(st.lat)
	q := tailQuantile(len(st.lat), 0.99)
	// The centre of the latency distribution is reported as its mean, not
	// its median. On a shared host the per-op CPU time moves by up to
	// 1.7x for seconds at a time, so the latencies of one run form two
	// modes; the median then jumps from one mode to the other as the
	// share of slow time crosses a half, while the mean moves in
	// proportion to that share. The median is printed in the detail.
	rep.values["latency_mean_us"] = mean(st.lat)
	rep.values["latency_p99_us"] = quantile(st.lat, q)
	rep.detail["latency_us"] = map[string]any{"n": len(st.lat), "mean": mean(st.lat),
		"p25": quantile(st.lat, 0.25), "p50": quantile(st.lat, 0.5), "p75": quantile(st.lat, 0.75),
		"tail_quantile": q, "tail": quantile(st.lat, q)}
	sec := elapsed.Seconds()
	rep.values["ops_per_s"] = float64(len(st.lat)) / sec
	rep.detail["ops_per_s"] = map[string]any{"ops": len(st.lat), "seconds": sec}
	rep.values["sim_minstr_per_s"] = float64(st.instrs) / sec / 1e6
	rep.detail["sim_minstr_per_s"] = map[string]any{"instructions": st.instrs, "seconds": sec}
	rep.values["peak_rss_mb"] = rss
	rep.timing("setup_s", setupS)
	// The process's CPU time over the loop tells a slower host from a
	// slower program: a host that takes CPUs away lowers cpu_frac, and a
	// host whose shared caches or memory are contended raises the CPU
	// time per simulated instruction at the same cpu_frac.
	rep.detail["cpu_frac"] = newRatio(cpu, sec*float64(runtime.GOMAXPROCS(0)))
	rep.detail["cpu_ns_per_instr"] = newRatio(cpu*1e9, float64(st.instrs))
	rep.detail["failed_frac"] = newRatio(float64(st.failed), float64(st.attempted))
	for k, xs := range st.byKind {
		rep.detail["latency_us."+k] = summarize(xs)
	}
	return rep, nil
}

// setupInChild runs this program with -setup-only and returns the
// set-up seconds it prints.
func setupInChild(ctx context.Context, workload string, seed int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	out, err := exec.CommandContext(ctx, exe, "-workload", workload,
		"-seed", strconv.FormatInt(seed, 10), "-setup-only").Output()
	if err != nil {
		return 0, fmt.Errorf("set-up process: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

func generators(p plan, clients int) []generator {
	gens := make([]generator, clients)
	for c := range gens {
		gens[c] = p.gen(c, clients)
	}
	return gens
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds is the process's user and system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// opClass tells the replay environment's warm-up ops from the timed
// ops: both measure the layers, but only timed ops have opRecords.
type opClass uint8

const (
	classTimed opClass = iota
	classWarm
)

// opRecord keeps one traced op's machine counters.
type opRecord struct {
	instrs   uint64
	faults   uint64
	compiled bool
}

// tracedClient is one closed-loop client of the traced phase. Each op
// runs three ways: over HTTP against the daemon (client.op), through
// the same daemon's handler on an in-memory recorder (server.handle),
// and layer by layer against a replay environment.
type tracedClient struct {
	tr      *tracer
	gen     generator
	http    *httpDoer
	rec     *handlerDoer
	classes map[uint64]opClass
	recs    []opRecord
	stats   loopStats
}

// tracedRun measures the per-layer metrics. It replays the seeded ops
// traced for half of d, then runs the same ops from the start untraced
// on a fresh daemon for the other half, the baseline of
// trace.overhead_frac, then takes the simulated counters over a fixed
// op prefix.
//
// The traced phase is the process's first, so its machines are built
// in fresh memory, as in a newly started kcmd (see timedRun); each
// phase's machines are freed before the next. The phase holds two sets
// of machines, whose untouched 32 MB boards still count as heap, so
// the run collects garbage at GOGC=10 to bound the garbage the
// collector would otherwise let grow to their total size.
func tracedRun(ctx context.Context, p plan, clients int, d time.Duration, spansPath string) (*report, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	rep := newReport()
	dm, _, err := setUp(ctx, p)
	if err != nil {
		return nil, err
	}
	tracers, tracedRate, err := tracedPhase(ctx, rep, dm, p, clients, d/2)
	if err := errors.Join(err, dm.stop()); err != nil {
		return nil, err
	}
	freeMemory()

	base, _, err := setUp(ctx, p)
	if err != nil {
		return nil, err
	}
	st, elapsed := closedLoop(ctx, base.addr, generators(p, clients), d-d/2)
	rep.ops(st)
	if err := base.stop(); err != nil {
		return nil, err
	}
	baseRate := float64(len(st.lat)) / elapsed.Seconds()
	rep.ratio("trace.overhead_frac", baseRate-tracedRate, baseRate)
	freeMemory()

	sim, err := simPass(ctx, p, clients)
	if err != nil {
		return nil, err
	}
	rep.ratio("machine.instrs_per_op", float64(sim.instrs), simOps)
	rep.ratio("machine.cycles_per_op", float64(sim.cycles), simOps)
	rep.ratio("cache.dcache_hit_ratio", float64(sim.dHits), float64(sim.dAccesses))
	rep.ratio("cache.ccache_hit_ratio", float64(sim.cHits), float64(sim.cAccesses))
	rep.ratio("gc.collections_per_op", float64(sim.gcs), simOps)
	rep.attempted += simOps
	rep.detail["peak_rss_mb"] = peakRSSMB()
	if spansPath != "" {
		if err := writeSpans(spansPath, tracers); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// freeMemory returns the machines of stopped daemons and environments
// to the OS.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// tracedPhase runs the closed loop traced for d against dm and a fresh
// replay environment and reports the span-derived metrics. It returns
// the spans and the completed ops per second.
func tracedPhase(ctx context.Context, rep *report, dm *daemon, p plan, clients int, d time.Duration) ([]*tracer, float64, error) {
	env, err := newReplayEnv(p.programs)
	if err != nil {
		return nil, 0, err
	}
	var ids atomic.Uint64
	epoch := time.Now()
	tcs := make([]*tracedClient, clients)
	for c := range tcs {
		tr := &tracer{epoch: epoch}
		tcs[c] = &tracedClient{tr: tr, gen: p.gen(c, clients), http: newHTTPDoer(dm.addr),
			rec: &handlerDoer{h: dm.srv.Handler(), tr: tr}, classes: map[uint64]opClass{}}
	}
	// The replay environment's own set-up: the warm-up ops, as traced
	// ops of client 0.
	t0 := tcs[0]
	for i := range p.warmup {
		id := ids.Add(1)
		t0.classes[id] = classWarm
		out, err := env.replay(ctx, t0.tr, id, -1, &p.warmup[i])
		if err == nil {
			err = check(&p.warmup[i], out.sols)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("replay set-up: %w", err)
		}
	}

	start := time.Now()
	stop := start.Add(d)
	var wg sync.WaitGroup
	for _, tc := range tcs {
		wg.Add(1)
		go func(tc *tracedClient) {
			defer wg.Done()
			defer tc.http.close()
			for time.Now().Before(stop) && ctx.Err() == nil {
				tc.step(ctx, env, ids.Add(1))
			}
		}(tc)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var st loopStats
	var recs []opRecord
	tracers := make([]*tracer, len(tcs))
	classes := map[uint64]opClass{}
	for i, tc := range tcs {
		st.add(tc.stats)
		recs = append(recs, tc.recs...)
		tracers[i] = tc.tr
		for id, c := range tc.classes {
			classes[id] = c
		}
	}
	rep.ops(st)
	sessions, err := sessionsCreated(ctx, dm)
	if err != nil {
		return nil, 0, err
	}
	rep.count("server.sessions_created", float64(sessions))
	rep.count("engine.machines_built", float64(dm.srv.Pool().Stats().Built))
	layerReport(rep, tracers, classes, recs)
	return tracers, float64(len(st.lat)) / elapsed.Seconds(), nil
}

// step runs one traced op three ways under a root span and checks each
// outcome against the oracle.
func (tc *tracedClient) step(ctx context.Context, env *replayEnv, id uint64) {
	o := tc.gen.next()
	tc.classes[id] = classTimed
	t0 := time.Now()
	root := tc.tr.open(id, "op", -1)
	sp := tc.tr.open(id, "client.op", root)
	_, err := runOp(ctx, tc.http, &o)
	tc.tr.close(sp)
	tc.rec.op, tc.rec.parent = id, root
	if _, rerr := runOp(ctx, tc.rec, shadowOp(o)); err == nil {
		err = rerr
	}
	rp := tc.tr.open(id, "replay", root)
	out, rerr := env.replay(ctx, tc.tr, id, rp, &o)
	tc.tr.close(rp)
	if rerr == nil {
		rerr = check(&o, out.sols)
	}
	tc.tr.close(root)
	if err == nil {
		err = rerr
	}
	tc.stats.attempted++
	if err != nil {
		tc.stats.failed++
		if tc.stats.firstErr == nil {
			tc.stats.firstErr = err
		}
		return
	}
	tc.stats.record(&o, float64(time.Since(t0).Nanoseconds())/1e3)
	tc.recs = append(tc.recs, opRecord{instrs: out.res.Stats.Instrs,
		faults: out.res.DataMMU.PageFaults, compiled: out.compiled})
}

// shadowOp is o as the recorder path sends it. A tenant op goes to a
// shadow tenant of the same client, which receives the same op sequence
// and so holds the same facts, because asserts and retracts must reach
// each tenant once. Queries are idempotent and go unchanged.
func shadowOp(o op) *op {
	if o.Tenant != "" {
		o.Tenant += "-shadow"
	}
	return &o
}

// sessionsCreated reads the daemon's /v1/stats session counter. It
// decodes only that field, so reshaping the rest of the stats reply
// (the pool's per-image fields, say) leaves the benchmark untouched.
func sessionsCreated(ctx context.Context, dm *daemon) (uint64, error) {
	c := newHTTPDoer(dm.addr)
	defer c.close()
	var st struct {
		Sessions struct {
			Created uint64 `json:"created"`
		} `json:"sessions"`
	}
	b, err := c.get(ctx, "/v1/stats")
	if err != nil {
		return 0, err
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return 0, fmt.Errorf("/v1/stats: %w", err)
	}
	return st.Sessions.Created, nil
}

// layerReport turns the spans into the per-layer time metrics: each
// layer's per-op total (several calls in one op add up), summarized
// over the ops that reached it. A layer the workload's ops never reach
// reads 0 and is marked unreached in the detail.
func layerReport(rep *report, tracers []*tracer, classes map[uint64]opClass, recs []opRecord) {
	byLayer := opTotals(tracers, classes)
	for _, m := range layerMetrics {
		layer, isTime := strings.CutSuffix(m.name, "_us")
		if !isTime {
			continue
		}
		if xs := byLayer.samples(layer); len(xs) > 0 {
			rep.timing(m.name, xs)
		} else {
			rep.values[m.name] = 0
			rep.detail[m.name] = map[string]any{"reached": false}
		}
	}
	if self := byLayer.samples("replay.self"); len(self) > 0 {
		rep.detail["replay.self_us"] = summarize(self)
	}
	handle := byLayer.samples("server.handle")
	children := byLayer.samples("replay.children")
	clientOp := byLayer.samples("client.op")
	rep.values["server.self_us"] = median(handle) - median(children)
	rep.detail["server.self_us"] = map[string]any{"server.handle_p50": median(handle),
		"replay_children_p50": median(children), "n": len(handle)}
	rep.values["client.transport_us"] = median(clientOp) - median(handle)
	rep.detail["client.transport_us"] = map[string]any{"client.op_p50": median(clientOp),
		"server.handle_p50": median(handle), "n": len(clientOp)}

	var instrs, faults, compiles float64
	for _, r := range recs {
		instrs += float64(r.instrs)
		faults += float64(r.faults)
		if r.compiled {
			compiles++
		}
	}
	runUS := 0.0
	for _, x := range byLayer[classTimed]["machine.run"] {
		runUS += x
	}
	rep.ratio("machine.host_ns_per_instr", runUS*1e3, instrs)
	rep.count("core.compiles", compiles)
	rep.ratio("core.first_sight_frac", compiles, float64(len(recs)))
	rep.ratio("mmu.page_faults_per_op", faults, float64(len(recs)))
}

// layerTotals holds, per op class and layer, each op's summed span
// time in microseconds.
type layerTotals map[opClass]map[string][]float64

// opTotals sums every op's spans per layer. Spans whose parent is an
// op's replay span also add to the pseudo-layer "replay.children", and
// the replay span's self time is the pseudo-layer "replay.self".
func opTotals(tracers []*tracer, classes map[uint64]opClass) layerTotals {
	out := layerTotals{}
	for _, tr := range tracers {
		perOp := map[uint64]map[string]float64{}
		kids := map[int32][]span{}
		for _, s := range tr.spans {
			m := perOp[s.Op]
			if m == nil {
				m = map[string]float64{}
				perOp[s.Op] = m
			}
			us := float64(s.End-s.Start) / 1e3
			m[s.Name] += us
			if s.Parent >= 0 && tr.spans[s.Parent].Name == "replay" {
				m["replay.children"] += us
				kids[s.Parent] = append(kids[s.Parent], s)
			}
		}
		for i, ch := range kids {
			p := tr.spans[i]
			perOp[p.Op]["replay.self"] += float64(selfTime(p, ch)) / 1e3
		}
		for id, m := range perOp {
			c := classes[id]
			if out[c] == nil {
				out[c] = map[string][]float64{}
			}
			for name, us := range m {
				out[c][name] = append(out[c][name], us)
			}
		}
	}
	return out
}

// samples returns a layer's per-op totals over the warm-up and timed
// ops.
func (t layerTotals) samples(layer string) []float64 {
	return append(append([]float64(nil), t[classTimed][layer]...), t[classWarm][layer]...)
}

// simCounters are simulated totals over the first simOps ops.
type simCounters struct {
	instrs, cycles, gcs uint64
	dHits, dAccesses    uint64
	cHits, cAccesses    uint64
}

// simPass replays the warm-up and then the first simOps ops of the
// seeded sequence (clients in turn) on a one-machine pool, so which
// machine serves an op, and so every simulated counter, depends on the
// seed alone.
func simPass(ctx context.Context, p plan, clients int) (simCounters, error) {
	var sc simCounters
	env, err := newReplayEnv(p.programs, engine.WithPoolSize(1))
	if err != nil {
		return sc, err
	}
	for i := range p.warmup {
		if _, err := env.replay(ctx, nil, 0, -1, &p.warmup[i]); err != nil {
			return sc, fmt.Errorf("sim pass warm-up: %w", err)
		}
	}
	gens := generators(p, clients)
	for i := 0; i < simOps; i++ {
		o := gens[i%clients].next()
		out, err := env.replay(ctx, nil, 0, -1, &o)
		if err == nil {
			err = check(&o, out.sols)
		}
		if err != nil {
			return sc, fmt.Errorf("sim pass: %w", err)
		}
		r := out.res
		sc.instrs += r.Stats.Instrs
		sc.cycles += r.Stats.Cycles
		sc.gcs += r.GC.Collections
		sc.dHits += r.DCache.Hits()
		sc.dAccesses += r.DCache.Reads + r.DCache.Writes
		sc.cHits += r.CCache.Hits()
		sc.cAccesses += r.CCache.Reads + r.CCache.Writes
	}
	return sc, nil
}

// spanFileOps caps the span file at the ops with ids up to this many:
// a full traced run holds millions of spans in memory.
const spanFileOps = 4000

// writeSpans writes the spans, one JSON object per line, tagged with
// their client, after a header line giving the cap.
func writeSpans(path string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"spans_of_ops_up_to": spanFileOps}); err != nil {
		f.Close()
		return err
	}
	for c, tr := range tracers {
		for _, s := range tr.spans {
			if s.Op > spanFileOps {
				continue
			}
			if err := enc.Encode(struct {
				Client int `json:"client"`
				span
			}{c, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printReport prints the run context and metric detail, a table on
// standard error, and, last, the result object.
func printReport(rc runContext, rep *report, defs []metricDef) {
	if rep.firstErr != nil {
		fmt.Fprintf(os.Stderr, "kcmdbench: first failure: %v\n", rep.firstErr)
	}
	metrics := map[string]any{}
	for _, m := range defs {
		v := rep.values[m.name]
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
		fmt.Fprintf(os.Stderr, "%-28s %14.4f %-9s", m.name, v, m.unit)
		if d, ok := rep.detail[m.name]; ok {
			b, _ := json.Marshal(d) // plain structs and maps of numbers
			fmt.Fprintf(os.Stderr, " %s", b)
		}
		fmt.Fprintln(os.Stderr)
	}
	line := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kcmdbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(b))
	}
	line(map[string]any{"context": rc, "detail": rep.detail})
	line(map[string]any{"correct": rep.failed == 0, "attempted": rep.attempted,
		"failed": rep.failed, "metrics": metrics})
}
