package bench

import (
	"fmt"
	"strings"

	"repro/internal/machine"
)

// ---------------- cache-collision study (section 3.2.4) ----------------

// CacheRow is one configuration of the direct-mapped-cache study: the
// paper ran small programs with stack tops initialised to distinct
// cache locations and then to the same cache cell, observing the hit
// ratio collapse; KCM's zone-split cache makes collisions impossible.
type CacheRow struct {
	Config   string
	HitRatio float64
	Reads    uint64
	Writes   uint64
	Misses   uint64
}

// The study's two unified-cache configurations: a plain direct-mapped
// 8K cache with the four stack bases on distinct cache indices, and
// with every base on the same index.
var (
	unifiedApart = machine.Config{
		SplitDataCache: machine.Off,
		GlobalBase:     0x0010000, GlobalSize: 0x0200000,
		LocalBase: 0x0400800, LocalSize: 0x0100000,
		ChoiceBase: 0x0801000, ChoiceSize: 0x0080000,
		TrailBase: 0x0C01800, TrailSize: 0x0080000,
	}
	unifiedColliding = machine.Config{
		SplitDataCache: machine.Off,
		GlobalBase:     0x0010000, GlobalSize: 0x0200000,
		LocalBase: 0x0400000, LocalSize: 0x0100000,
		ChoiceBase: 0x0800000, ChoiceSize: 0x0080000,
		TrailBase: 0x0C00000, TrailSize: 0x0080000,
	}
)

// CacheStudy reproduces the experiment on a workload that keeps all
// four stacks active (queens: environments, choice points, trail and
// heap all grow and shrink).
func CacheStudy() ([]CacheRow, error) {
	p, _ := ByName("queens")
	run := func(name string, cfg machine.Config) (CacheRow, error) {
		r, err := RunKCM(p, true, cfg)
		if err != nil {
			return CacheRow{}, err
		}
		d := r.Result.DCache
		return CacheRow{
			Config:   name,
			HitRatio: d.HitRatio(),
			Reads:    d.Reads,
			Writes:   d.Writes,
			Misses:   d.ReadMiss + d.WriteMiss,
		}, nil
	}
	var rows []CacheRow
	// (a) plain direct-mapped cache, stack bases on distinct cache
	// indices (the paper's first initialisation).
	apart, err := run("unified, stacks apart", unifiedApart)
	if err != nil {
		return nil, err
	}
	rows = append(rows, apart)
	// (b) plain direct-mapped cache, every stack base on the same
	// cache index (the paper's second initialisation).
	collide, err := run("unified, stacks colliding", unifiedColliding)
	if err != nil {
		return nil, err
	}
	rows = append(rows, collide)
	// (c) the KCM answer: 8 zone-selected sections, collisions
	// impossible even with identical base offsets.
	split, err := run("KCM 8-section split", machine.Config{})
	if err != nil {
		return nil, err
	}
	rows = append(rows, split)
	return rows, nil
}

// RenderCacheStudy formats the study.
func RenderCacheStudy(rows []CacheRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %9s %9s %9s %9s\n", "Configuration", "hit-ratio", "reads", "writes", "misses")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %8.2f%% %9d %9d %9d\n",
			r.Config, r.HitRatio*100, r.Reads, r.Writes, r.Misses)
	}
	return b.String()
}

// ---------------- shallow-backtracking ablation ----------------

// ShallowRow compares one benchmark with delayed choice-point
// creation (KCM) against eager standard-WAM choice points.
type ShallowRow struct {
	Program        string
	ShallowCycles  uint64
	EagerCycles    uint64
	ShallowCPs     uint64 // choice points actually materialised
	EagerCPs       uint64
	ShallowCPWords uint64
	EagerCPWords   uint64
	EagerDataRefs  uint64 // total data-cache accesses in eager mode
}

// Speedup is eager/shallow cycle ratio.
func (r ShallowRow) Speedup() float64 { return float64(r.EagerCycles) / float64(r.ShallowCycles) }

// CPTrafficShare is the fraction of data references spent saving and
// restoring choice points in eager mode (the paper cites ~50% for the
// standard WAM, after Tick).
func (r ShallowRow) CPTrafficShare() float64 {
	if r.EagerDataRefs == 0 {
		return 0
	}
	return float64(2*r.EagerCPWords) / float64(r.EagerDataRefs)
}

// AblationShallow runs the suite with and without shallow
// backtracking.
func AblationShallow() ([]ShallowRow, error) {
	var rows []ShallowRow
	for _, p := range Suite {
		s, err := RunKCMWarm(p, true, machine.Config{})
		if err != nil {
			return nil, err
		}
		e, err := RunKCMWarm(p, true, machine.Config{Shallow: machine.Off})
		if err != nil {
			return nil, err
		}
		rows = append(rows, ShallowRow{
			Program:        p.Name,
			ShallowCycles:  s.Stats.Cycles,
			EagerCycles:    e.Stats.Cycles,
			ShallowCPs:     s.Stats.ChoicePoints,
			EagerCPs:       e.Stats.ChoicePoints,
			ShallowCPWords: s.Stats.CPWords,
			EagerCPWords:   e.Stats.CPWords,
			EagerDataRefs:  e.Result.DCache.Reads + e.Result.DCache.Writes,
		})
	}
	return rows, nil
}

// RenderShallow formats the ablation.
func RenderShallow(rows []ShallowRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s %10s %8s %8s %8s %10s\n",
		"Program", "shal.cyc", "eager.cyc", "speedup", "shal.CP", "eager.CP", "CPtraffic")
	var sum float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %10d %10d %8.2f %8d %8d %9.1f%%\n",
			r.Program, r.ShallowCycles, r.EagerCycles, r.Speedup(),
			r.ShallowCPs, r.EagerCPs, r.CPTrafficShare()*100)
		sum += r.Speedup()
	}
	fmt.Fprintf(&b, "%-10s %10s %10s %8.2f\n", "average", "", "", sum/float64(len(rows)))
	return b.String()
}

// ---------------- hardware-unit ablations (section 5) ----------------

// UnitRow compares cycles with a hardware unit enabled vs disabled.
type UnitRow struct {
	Program  string
	Base     uint64
	Disabled uint64
}

// Slowdown is disabled/base.
func (r UnitRow) Slowdown() float64 { return float64(r.Disabled) / float64(r.Base) }

// AblationUnit measures the contribution of one hardware unit
// ("deref" or "trail") over the suite, the per-unit evaluation the
// paper schedules as future work (section 5).
func AblationUnit(unit string) ([]UnitRow, error) {
	var rows []UnitRow
	for _, p := range Suite {
		base, err := RunKCMWarm(p, true, machine.Config{})
		if err != nil {
			return nil, err
		}
		cfg := machine.Config{}
		switch unit {
		case "deref":
			cfg.HWDeref = machine.Off
		case "trail":
			cfg.HWTrail = machine.Off
		default:
			return nil, fmt.Errorf("unknown unit %q", unit)
		}
		dis, err := RunKCMWarm(p, true, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, UnitRow{Program: p.Name, Base: base.Stats.Cycles, Disabled: dis.Stats.Cycles})
	}
	return rows, nil
}

// RenderUnit formats a unit ablation.
func RenderUnit(rows []UnitRow, unit string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s %12s %9s\n", "Program", "base.cyc", "no-"+unit, "slowdown")
	var sum float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %10d %12d %9.3f\n", r.Program, r.Base, r.Disabled, r.Slowdown())
		sum += r.Slowdown()
	}
	fmt.Fprintf(&b, "%-10s %10s %12s %9.3f\n", "average", "", "", sum/float64(len(rows)))
	return b.String()
}
