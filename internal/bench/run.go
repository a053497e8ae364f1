package bench

import (
	"fmt"
	"strings"

	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/machine"
)

// RunResult is one benchmark execution on the KCM simulator.
type RunResult struct {
	Program string
	Pure    bool
	Success bool
	Stats   machine.Stats
	Result  machine.Result
	Output  string
}

// Millis is the simulated execution time in milliseconds.
func (r RunResult) Millis() float64 { return r.Stats.Millis() }

// Klips is the simulated inferencing rate.
func (r RunResult) Klips() float64 { return r.Stats.Klips() }

// Compile builds the linked image for one benchmark variant.
func Compile(p Program, pure bool) (*asm.Image, error) {
	prog, err := core.Load(p.Source)
	if err != nil {
		return nil, fmt.Errorf("bench %s: %w", p.Name, err)
	}
	q := p.Query
	if pure {
		q = p.PureQuery
	}
	return prog.CompileQuery(q)
}

// RunKCMWarm reproduces the paper's measurement protocol ("the best
// figure obtained on 4 successive runs"): one run warms the logical
// caches and the page tables, then the machine is Reset and a second,
// warm run is timed.
func RunKCMWarm(p Program, pure bool, cfg machine.Config) (RunResult, error) {
	return runKCM(p, pure, cfg, 2)
}

// RunKCM executes one benchmark variant cold on a machine with the
// given configuration.
func RunKCM(p Program, pure bool, cfg machine.Config) (RunResult, error) {
	return runKCM(p, pure, cfg, 1)
}

// runKCM runs the variant runs times on one machine, resetting it
// between runs, and reports the last run. Each run is one RunFor slice
// of machine.DefaultBudget instructions; a run that suspends on it
// fails with machine.ErrStepBudget.
func runKCM(p Program, pure bool, cfg machine.Config, runs int) (RunResult, error) {
	im, err := Compile(p, pure)
	if err != nil {
		return RunResult{}, err
	}
	var out strings.Builder
	if cfg.Out == nil {
		cfg.Out = &out
	}
	m, err := machine.New(im, cfg)
	if err != nil {
		return RunResult{}, err
	}
	entry, _ := im.Entry(compiler.QueryPI)
	for i := range runs {
		if i > 0 {
			out.Reset()
			m.Reset()
		}
		m.Begin(entry)
		st, err := m.RunFor(nil, machine.DefaultBudget)
		if err == nil && st == machine.Suspended {
			err = fmt.Errorf("%w: %d steps", machine.ErrStepBudget, machine.DefaultBudget)
		}
		if err != nil {
			return RunResult{}, fmt.Errorf("bench %s: %w", p.Name, err)
		}
	}
	res := m.Result()
	return RunResult{
		Program: p.Name,
		Pure:    pure,
		Success: res.Success,
		Stats:   res.Stats,
		Result:  res,
		Output:  out.String(),
	}, nil
}
