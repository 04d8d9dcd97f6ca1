package dmetabench

import (
	"strconv"
	"testing"

	"dmetabench/internal/cluster"
	"dmetabench/internal/fs"
	"dmetabench/internal/lustre"
	"dmetabench/internal/nfs"
	"dmetabench/internal/shard"
	"dmetabench/internal/sim"
)

// TestCreateAllocs pins the steady-state heap allocations of one
// simulated create on the single-kernel path of each RPC-based model.
// Every RPC body is a typed request held on the client (simnet.Body),
// so the RPC machinery itself allocates nothing; what remains is the
// new namespace entry and the cache and journal bookkeeping. A closure
// or a box slipping back onto the path fails go test instead of
// surfacing later as a slower benchmark.
func TestCreateAllocs(t *testing.T) {
	type model interface {
		NewClient(*cluster.Node, *sim.Proc) fs.Client
	}
	for _, tc := range []struct {
		name string
		max  float64 // the namespace inode is the one allocation left
		fs   func(k *sim.Kernel) model
	}{
		{"nfs", 1, func(k *sim.Kernel) model { return nfs.New(k, "t", nfs.DefaultConfig()) }},
		{"lustre", 1, func(k *sim.Kernel) model { return lustre.New(k, "t", lustre.DefaultConfig()) }},
		{"shard", 1, func(k *sim.Kernel) model { return shard.New(k, "t", shard.DefaultConfig(4)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const runs = 2000
			paths := make([]string, runs+1) // AllocsPerRun adds a warm-up call
			for i := range paths {
				paths[i] = "/d/f" + strconv.Itoa(i)
			}
			k := sim.New(1)
			cl := cluster.New(k, cluster.DefaultConfig(1))
			fsys := tc.fs(k)
			var avg float64
			k.Spawn("creator", func(p *sim.Proc) {
				c := fsys.NewClient(cl.Nodes[0], p)
				if err := c.Mkdir("/d"); err != nil {
					t.Error(err)
					return
				}
				i := 0
				avg = testing.AllocsPerRun(runs, func() {
					if err := c.Create(paths[i]); err != nil {
						t.Error(err)
					}
					i++
				})
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %.2f allocs per create", tc.name, avg)
			if avg > tc.max {
				t.Fatalf("%s create allocates %.2f objects, want <= %.0f", tc.name, avg, tc.max)
			}
		})
	}
}
