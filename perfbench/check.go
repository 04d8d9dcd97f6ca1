package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"dmetabench/internal/results"
)

// Seeds. defaultSeed is the one the benchmark is developed against;
// heldOutSeed is not looked at while a change is written, and a
// claimed gain must hold on it too.
const (
	defaultSeed = 1
	heldOutSeed = 2
)

// wantDigests pins the result-set digest of each workload at its
// default size for both named seeds. A change that only makes the
// simulator faster must leave them untouched; a model change updates
// them and says why.
var wantDigests = map[string]map[int64]string{
	// The NFS model draws from the kernel's random source only while a
	// snapshot is being created, which this workload never triggers,
	// so every seed simulates the same run.
	"nfs-paper": {
		defaultSeed: "c87b71d3de82048aeb89224796d8eb49085c74df6f2de8095f252372767c5e45",
		heldOutSeed: "c87b71d3de82048aeb89224796d8eb49085c74df6f2de8095f252372767c5e45",
	},
	"shard-lease": {
		defaultSeed: "e47bbf224b6c0391b2974353e0cf4038291ce4e65c46deb023c1e3757c4f910d",
		heldOutSeed: "b74df980071591b4b53dc443d2b5b8056ec3e90e79c95fe34e10fa49c8da5a05",
	},
	"lustre-domained": {
		defaultSeed: "9317c6c6a56d6cac78d7c107ea367ffae8df26a4b605b05e4f59624518415d05",
		heldOutSeed: "3ee4238d6513e321d6860f2850fdfbe2e8bdc764bca74e6f0305ea7818223881",
	},
}

// digest hashes a result set serialized the way results.Save writes
// it: per measurement the trace file name and bytes, the summary and,
// when present, the series. Writes to a hash cannot fail.
func digest(set *results.Set) string {
	h := sha256.New()
	for _, m := range set.Measurements {
		fmt.Fprintln(h, m.TraceFileName())
		m.WriteTrace(h)
		m.WriteSummary(h)
		if len(m.Series) > 0 {
			m.WriteSeries(h)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// check verifies one run's output: no measurement failed, every
// planned op completed, every namespace is consistent and, for a named
// seed at the default size, the digest matches the pinned one.
func check(name string, seed int64, defaultSize bool, inst *instance, set *results.Set, completed int64, got string) []string {
	var problems []string
	for _, m := range set.Measurements {
		for rank, e := range m.Errors {
			if e != "" {
				problems = append(problems, fmt.Sprintf("%s rank %d: %s", m.Op, rank, e))
			}
		}
	}
	if completed != inst.planned {
		problems = append(problems, fmt.Sprintf("completed %d of %d planned ops", completed, inst.planned))
	}
	for i, ns := range inst.namespaces() {
		for _, p := range ns.Check() {
			problems = append(problems, fmt.Sprintf("namespace %d: %s", i, p))
		}
	}
	if want, ok := wantDigests[name][seed]; ok && defaultSize && got != want {
		problems = append(problems, fmt.Sprintf("digest %s, want %s", got, want))
	}
	return problems
}
