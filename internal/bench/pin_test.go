package bench

import (
	"fmt"
	"testing"

	"repro/internal/machine"
)

// fingerprint condenses the counters the kcmbench tables are built
// from: warm-run cycles, inferences, and both caches' read/miss
// counts. Any drift in the simulated cost model shows up here.
func fingerprint(r RunResult) string {
	return fmt.Sprintf("cycles=%d inf=%d dc=%d/%d+%d/%d cc=%d/%d",
		r.Stats.Cycles, r.Stats.Inferences,
		r.Result.DCache.Reads, r.Result.DCache.ReadMiss,
		r.Result.DCache.Writes, r.Result.DCache.WriteMiss,
		r.Result.CCache.Reads, r.Result.CCache.ReadMiss)
}

// pinnedWarm is the expected warm-run fingerprint of every suite
// program on the default configuration, captured from the current
// tree. The session-engine refactor (resumable RunFor, machine
// pooling) must keep these byte-identical. If a change legitimately
// alters the cost model, rerun the test: the failure message prints
// each program's new fingerprint to paste here.
var pinnedWarm = map[string]string{
	"con1":     "cycles=94 inf=6 dc=12/0+30/0 cc=59/0",
	"con6":     "cycles=743 inf=43 dc=123/0+213/0 cc=581/0",
	"divide10": "cycles=856 inf=21 dc=184/0+303/0 cc=621/0",
	"hanoi":    "cycles=28388 inf=1787 dc=3827/1+6145/4872 cc=12259/0",
	"log10":    "cycles=336 inf=13 dc=64/0+85/0 cc=358/0",
	"mutest":   "cycles=42108 inf=1214 dc=13587/0+8283/0 cc=17006/0",
	"nrev1":    "cycles=7775 inf=499 dc=1579/0+1651/0 cc=6140/0",
	"ops8":     "cycles=501 inf=19 dc=108/0+142/0 cc=397/0",
	"palin25":  "cycles=5556 inf=355 dc=1155/0+1117/0 cc=4373/0",
	"pri2":     "cycles=47278 inf=1163 dc=3218/0+1996/0 cc=8833/0",
	"qs4":      "cycles=11114 inf=604 dc=2317/0+2204/0 cc=6928/0",
	"queens":   "cycles=17145 inf=944 dc=3762/0+3624/0 cc=6375/0",
	"query":    "cycles=142826 inf=2884 dc=18667/0+9409/0 cc=53113/0",
	"times10":  "cycles=730 inf=21 dc=166/0+231/0 cc=567/0",
}

// TestCyclePin asserts that every suite program's warm-run cycle
// count and cache statistics match the pinned values.
func TestCyclePin(t *testing.T) {
	for _, p := range Suite {
		r, err := RunKCMWarm(p, false, machine.Config{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		got := fingerprint(r)
		want, ok := pinnedWarm[p.Name]
		if !ok {
			t.Errorf("%s: no pinned fingerprint (got %q)", p.Name, got)
			continue
		}
		if got != want {
			t.Errorf("%s: counters drifted:\n got  %s\n want %s", p.Name, got, want)
		}
	}
}

// counterPrint renders every counter a run leaves in machine.Result:
// success, all of Stats, both caches' statistics, memory traffic, the
// data MMU's translations, page faults, zone checks and traps, and the
// collector's. Fields print in declaration order.
func counterPrint(r machine.Result) string {
	return fmt.Sprintf("ok=%v stats=%v dc=%v cc=%v mem=%v dmmu=%v gc=%v",
		r.Success, r.Stats, r.DCache, r.CCache, r.Mem, r.DataMMU, r.GC)
}

// counterRun is one pinned run of TestCounterPin.
type counterRun struct {
	name string
	run  func() (RunResult, error)
}

// counterRuns are the runs TestCounterPin pins: every suite program
// cold and warm, the miss-heavy nrev300 warm (among the suite's warm
// runs only hanoi misses at all), and queens cold on the cache
// study's two unified-cache configurations, whose data-cache index
// ignores the zone.
func counterRuns() []counterRun {
	var rs []counterRun
	for _, p := range Suite {
		rs = append(rs,
			counterRun{"cold/" + p.Name, func() (RunResult, error) { return RunKCM(p, false, machine.Config{}) }},
			counterRun{"warm/" + p.Name, func() (RunResult, error) { return RunKCMWarm(p, false, machine.Config{}) }})
	}
	queens, _ := ByName("queens")
	return append(rs,
		counterRun{"warm/nrev300", func() (RunResult, error) { return RunKCMWarm(Nrev300, false, machine.Config{}) }},
		counterRun{"unified-apart/queens", func() (RunResult, error) { return RunKCM(queens, true, unifiedApart) }},
		counterRun{"unified-colliding/queens", func() (RunResult, error) { return RunKCM(queens, true, unifiedColliding) }})
}

// pinnedCounters is counterPrint of every counterRuns entry. Unlike
// pinnedWarm, which holds only what the kcmbench tables print, these
// catch a drift in any counter: a zone check counted on one path but
// not another, a lost write-back, a changed page-fault pattern. If a
// change legitimately alters the cost model, rerun the test: the
// failure message prints each run's new line to paste here.
var pinnedCounters = map[string]string{
	"cold/con1":                "ok=true stats={80 125 47 6 5 1 4 0 0 0 0 1 0 4 1 2 9} dc={12 30 0 26 0} cc={59 0 31 0 0} mem={31 34 64 0 true} dmmu={0 0 42 0} gc={0 0 0 0 0}",
	"warm/con1":                "ok=true stats={80 94 47 6 5 1 4 0 0 0 0 1 0 4 1 2 9} dc={12 30 0 0 0} cc={59 0 0 0 0} mem={0 0 0 0 true} dmmu={0 0 42 0} gc={0 0 0 0 0}",
	"cold/con6":                "ok=true stats={80 860 455 43 48 6 42 0 0 0 0 1 0 42 2 0 9} dc={123 213 0 171 0} cc={581 0 117 0 0} mem={117 120 236 0 true} dmmu={0 0 336 0} gc={0 0 0 0 0}",
	"warm/con6":                "ok=true stats={80 743 455 43 48 6 42 0 0 0 0 1 0 42 2 0 9} dc={123 213 0 0 0} cc={581 0 0 0 0} mem={0 0 0 0 true} dmmu={0 0 336 0} gc={0 0 0 0 0}",
	"cold/divide10":            "ok=true stats={80 951 420 21 55 10 55 19 19 0 0 1 0 19 10 2 9} dc={184 303 0 248 0} cc={621 0 95 0 0} mem={95 251 345 0 true} dmmu={0 0 487 0} gc={0 0 0 0 0}",
	"warm/divide10":            "ok=true stats={80 856 420 21 55 10 55 19 19 0 0 1 0 19 10 2 9} dc={184 303 0 0 0} cc={621 0 0 0 0} mem={0 0 0 0 true} dmmu={0 0 487 0} gc={0 0 0 0 0}",
	"cold/hanoi":               "ok=true stats={80 26649 9704 1787 0 0 0 0 256 0 0 257 0 255 511 765 3337} dc={3827 6145 1 5129 3082} cc={12259 0 49 0 0} mem={50 3172 2978 0 true} dmmu={3083 2 9972 0} gc={0 0 0 0 0}",
	"warm/hanoi":               "ok=true stats={80 28388 9704 1787 0 0 0 0 256 0 0 257 0 255 511 765 3337} dc={3827 6145 1 4872 4873} cc={12259 0 0 0 0} mem={1 4873 4414 73 true} dmmu={4874 0 9972 0} gc={0 0 0 0 0}",
	"cold/log10":               "ok=true stats={80 402 165 13 11 1 11 11 11 0 0 1 0 11 1 2 9} dc={64 85 0 74 0} cc={358 0 66 0 0} mem={66 244 309 0 true} dmmu={0 0 149 0} gc={0 0 0 0 0}",
	"warm/log10":               "ok=true stats={80 336 165 13 11 1 11 11 11 0 0 1 0 11 1 2 9} dc={64 85 0 0 0} cc={358 0 0 0 0} mem={0 0 0 0 true} dmmu={0 0 149 0} gc={0 0 0 0 0}",
	"cold/mutest":              "ok=true stats={80 42236 13988 1214 3116 2831 2325 829 869 687 174 106 77 870 118 0 1224} dc={13587 8283 0 255 0} cc={17006 0 128 0 0} mem={128 129 256 0 true} dmmu={0 0 21870 0} gc={0 0 0 0 0}",
	"warm/mutest":              "ok=true stats={80 42108 13988 1214 3116 2831 2325 829 869 687 174 106 77 870 118 0 1224} dc={13587 8283 0 0 0} cc={17006 0 0 0 0} mem={0 0 0 0 true} dmmu={0 0 21870 0} gc={0 0 0 0 0}",
	"cold/nrev1":               "ok=true stats={80 7887 4652 499 467 30 467 0 0 0 0 1 0 496 31 2 9} dc={1579 1651 0 1184 0} cc={6140 0 112 0 0} mem={112 117 228 0 true} dmmu={0 0 3230 0} gc={0 0 0 0 0}",
	"warm/nrev1":               "ok=true stats={80 7775 4652 499 467 30 467 0 0 0 0 1 0 496 31 2 9} dc={1579 1651 0 0 0} cc={6140 0 0 0 0} mem={0 0 0 0 true} dmmu={0 0 3230 0} gc={0 0 0 0 0}",
	"cold/ops8":                "ok=true stats={80 631 246 19 23 8 23 10 13 3 0 1 0 13 6 2 9} dc={108 142 0 101 0} cc={397 0 130 0 0} mem={130 245 374 0 true} dmmu={0 0 250 0} gc={0 0 0 0 0}",
	"warm/ops8":                "ok=true stats={80 501 246 19 23 8 23 10 13 3 0 1 0 13 6 2 9} dc={108 142 0 0 0} cc={397 0 0 0 0} mem={0 0 0 0 true} dmmu={0 0 250 0} gc={0 0 0 0 0}",
	"cold/palin25":             "ok=true stats={80 5661 3320 355 302 51 302 0 0 0 0 1 0 351 26 2 9} dc={1155 1117 0 815 0} cc={4373 0 105 0 0} mem={105 110 214 0 true} dmmu={0 0 2272 0} gc={0 0 0 0 0}",
	"warm/palin25":             "ok=true stats={80 5556 3320 355 302 51 302 0 0 0 0 1 0 351 26 2 9} dc={1155 1117 0 0 0} cc={4373 0 0 0 0} mem={0 0 0 0 true} dmmu={0 0 2272 0} gc={0 0 0 0 0}",
	"cold/pri2":                "ok=true stats={80 47362 8755 1163 486 408 486 148 939 745 0 26 0 532 27 2 309} dc={3218 1996 0 1501 0} cc={8833 0 84 0 0} mem={84 87 170 0 true} dmmu={0 0 5214 0} gc={0 0 0 0 0}",
	"warm/pri2":                "ok=true stats={80 47278 8755 1163 486 408 486 148 939 745 0 26 0 532 27 2 309} dc={3218 1996 0 0 0} cc={8833 0 0 0 0} mem={0 0 0 0 true} dmmu={0 0 5214 0} gc={0 0 0 0 0}",
	"cold/qs4":                 "ok=true stats={80 11292 5800 604 499 51 499 225 225 122 0 1 0 376 51 2 9} dc={2317 2204 0 822 0} cc={6928 0 178 0 0} mem={178 184 361 0 true} dmmu={0 0 4521 0} gc={0 0 0 0 0}",
	"warm/qs4":                 "ok=true stats={80 11114 5800 604 499 51 499 225 225 122 0 1 0 376 51 2 9} dc={2317 2204 0 0 0} cc={6928 0 0 0 0} mem={0 0 0 0 true} dmmu={0 0 4521 0} gc={0 0 0 0 0}",
	"cold/queens":              "ok=true stats={80 17270 5971 944 232 449 232 156 511 309 102 202 0 252 110 2 2344} dc={3762 3624 0 204 0} cc={6375 0 125 0 0} mem={125 131 255 0 true} dmmu={0 0 7386 0} gc={0 0 0 0 0}",
	"warm/queens":              "ok=true stats={80 17145 5971 944 232 449 232 156 511 309 102 202 0 252 110 2 2344} dc={3762 3624 0 0 0} cc={6375 0 0 0 0} mem={0 0 0 0 true} dmmu={0 0 7386 0} gc={0 0 0 0 0}",
	"cold/query":               "ok=true stats={80 143287 18585 2884 4576 650 2600 2520 625 0 625 28 598 677 29 0 304} dc={18667 9409 0 75 0} cc={53113 0 329 0 0} mem={329 406 689 1 true} dmmu={0 0 28076 0} gc={0 0 0 0 0}",
	"warm/query":               "ok=true stats={80 142826 18585 2884 4576 650 2600 2520 625 0 625 28 598 677 29 0 304} dc={18667 9409 0 0 0} cc={53113 0 0 0 0} mem={0 0 0 1 true} dmmu={0 0 28076 0} gc={0 0 0 0 0}",
	"cold/times10":             "ok=true stats={80 819 366 21 37 10 37 19 19 0 0 1 0 19 10 2 9} dc={166 231 0 194 0} cc={567 0 89 0 0} mem={89 251 339 0 true} dmmu={0 0 397 0} gc={0 0 0 0 0}",
	"warm/times10":             "ok=true stats={80 730 366 21 37 10 37 19 19 0 0 1 0 19 10 2 9} dc={166 231 0 0 0} cc={567 0 0 0 0} mem={0 0 0 0 true} dmmu={0 0 397 0} gc={0 0 0 0 0}",
	"warm/nrev300":             "ok=true stats={80 780387 410860 45451 45151 300 45151 0 0 0 0 1 0 45451 301 0 9} dc={137251 137864 818 91812 92460} cc={547213 0 0 0 0} mem={818 92460 91083 479 true} dmmu={93278 0 275115 0} gc={0 0 0 0 0}",
	"unified-apart/queens":     "ok=true stats={80 17256 5968 942 232 449 232 156 511 309 102 202 0 252 110 0 2344} dc={3761 3624 0 204 0} cc={6372 0 122 0 0} mem={122 128 249 0 true} dmmu={0 0 7385 0} gc={0 0 0 0 0}",
	"unified-colliding/queens": "ok=true stats={80 20303 5968 942 232 449 232 156 511 309 102 202 0 252 110 0 2344} dc={3761 3624 657 710 845} cc={6372 0 122 0 0} mem={779 973 714 0 true} dmmu={1502 4 7385 0} gc={0 0 0 0 0}",
}

// TestCounterPin asserts that every counter of every pinned run
// matches its pinned value.
func TestCounterPin(t *testing.T) {
	for _, c := range counterRuns() {
		r, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := counterPrint(r.Result)
		if want, ok := pinnedCounters[c.name]; !ok || got != want {
			t.Errorf("%s: counters drifted:\n got  %s\n want %s\n pin line:\n\t%q: %q,", c.name, got, want, c.name, got)
		}
	}
}
