package main

import (
	"fmt"
	"strconv"
	"strings"
)

// want is an op's expected outcome, computed in Go when the op is
// generated, never by the KCM.
type want struct {
	// Var is the query variable whose binding is checked in every
	// solution.
	Var string `json:"var,omitempty"`
	// Values are Var's renderings in each solution, in order.
	Values []string `json:"values,omitempty"`
	// Queens, when set, is a board size: each solution must be a valid
	// placement of that many queens, all solutions distinct, and there
	// must be exactly Count of them.
	Queens int `json:"queens,omitempty"`
	Count  int `json:"count,omitempty"`
}

// check compares an op's solutions with its expectation. Assert and
// retract carry no solutions; their executor already required status
// "yes".
func check(o *op, sols []map[string]string) error {
	if o.Kind == opAssert || o.Kind == opRetract {
		return nil
	}
	w := o.Want
	if w.Queens > 0 {
		if len(sols) != w.Count {
			return fmt.Errorf("%s: %d solutions, want %d", o.Text, len(sols), w.Count)
		}
		seen := map[string]bool{}
		for i, s := range sols {
			if err := checkQueens(s[w.Var], w.Queens); err != nil {
				return fmt.Errorf("%s: solution %d: %w", o.Text, i+1, err)
			}
			if seen[s[w.Var]] {
				return fmt.Errorf("%s: solution %d repeats %s", o.Text, i+1, s[w.Var])
			}
			seen[s[w.Var]] = true
		}
		return nil
	}
	if len(sols) != len(w.Values) {
		return fmt.Errorf("%s: %d solutions, want %d", o.Text, len(sols), len(w.Values))
	}
	for i, s := range sols {
		got, ok := s[w.Var]
		if !ok {
			return fmt.Errorf("%s: solution %d has no binding for %s", o.Text, i+1, w.Var)
		}
		if got != w.Values[i] {
			return fmt.Errorf("%s: solution %d: %s = %s, want %s", o.Text, i+1, w.Var, got, w.Values[i])
		}
	}
	return nil
}

// checkQueens verifies that text renders a list of n column numbers
// that is a permutation of 1..n with no two queens on a diagonal.
func checkQueens(text string, n int) error {
	if !strings.HasPrefix(text, "[") || !strings.HasSuffix(text, "]") {
		return fmt.Errorf("not a list: %q", text)
	}
	fields := strings.Split(text[1:len(text)-1], ",")
	if len(fields) != n {
		return fmt.Errorf("%q places %d queens, want %d", text, len(fields), n)
	}
	cols := make([]int, n)
	used := make([]bool, n+1)
	for i, f := range fields {
		c, err := strconv.Atoi(f)
		if err != nil || c < 1 || c > n || used[c] {
			return fmt.Errorf("%q is not a permutation of 1..%d", text, n)
		}
		used[c] = true
		cols[i] = c
	}
	for i := range cols {
		for j := i + 1; j < n; j++ {
			if d := cols[j] - cols[i]; d == j-i || d == i-j {
				return fmt.Errorf("%q: queens %d and %d share a diagonal", text, i+1, j+1)
			}
		}
	}
	return nil
}
