package main

import (
	"testing"
	"time"

	"dmetabench/internal/core"
)

func TestCheckFlags(t *testing.T) {
	defaults := core.Params{ProblemSize: 5000, Interval: 100 * time.Millisecond, NodeStep: 1, PPNStep: 1}
	for _, tc := range []struct {
		name                      string
		edit                      func(p *core.Params)
		nodes, ppn, cores, shards int
		ok                        bool
	}{
		{"defaults", nil, 4, 2, 8, 4, true},
		{"one of everything", nil, 1, 1, 1, 1, true},
		{"timed, zero problem size", func(p *core.Params) { p.ProblemSize, p.TimeLimit = 0, time.Second }, 4, 2, 8, 4, true},
		{"zero nodes", nil, 0, 2, 8, 4, false},
		{"zero ppn", nil, 4, 0, 8, 4, false},
		{"negative cores", nil, 4, 2, -1, 4, false},
		{"zero shards", nil, 4, 2, 8, 0, false},
		{"negative shards", nil, 4, 2, 8, -1, false},
		{"zero nodestep", func(p *core.Params) { p.NodeStep = 0 }, 4, 2, 8, 4, false},
		{"zero ppnstep", func(p *core.Params) { p.PPNStep = 0 }, 4, 2, 8, 4, false},
		{"negative problemsize", func(p *core.Params) { p.ProblemSize = -1 }, 4, 2, 8, 4, false},
		{"negative timelimit", func(p *core.Params) { p.TimeLimit = -time.Second }, 4, 2, 8, 4, false},
		{"zero interval", func(p *core.Params) { p.Interval = 0 }, 4, 2, 8, 4, false},
		{"negative interval", func(p *core.Params) { p.Interval = -time.Millisecond }, 4, 2, 8, 4, false},
	} {
		params := defaults
		if tc.edit != nil {
			tc.edit(&params)
		}
		err := checkFlags(params, tc.nodes, tc.ppn, tc.cores, tc.shards)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkFlags(%+v, %d, %d, %d, %d) = %v, want ok=%v",
				tc.name, params, tc.nodes, tc.ppn, tc.cores, tc.shards, err, tc.ok)
		}
	}
}
