package shard

import (
	"fmt"
	"testing"

	"dmetabench/internal/cluster"
	"dmetabench/internal/fs"
	"dmetabench/internal/sim"
)

// leasePinRun drives a small lease-coherent workload on 4 nodes × 2
// procs: every proc stats a shared pool of hot files (so most paths have
// several lease holders), rewrites and recreates some of them (multi-
// holder revocations), creates in the shared directory from every node
// (delegation recalls) and fills /big past the split threshold (one
// directory split, whose moved entries' leases are revoked in a
// fan-out) — on the single kernel, or on domains kernel domains run by
// two window workers. It returns the FS after the run and the number of
// events every kernel dispatched.
func leasePinRun(t *testing.T, domains int) (*FS, int64) {
	t.Helper()
	cfg := splitCfg(64)
	cfg.CacheMode = CacheLease
	cfg.TrackStaleness = true
	cfg.Domains = domains
	k := sim.New(7)
	cl := cluster.New(k, cluster.DefaultConfig(4))
	f := New(k, "pin", cfg)
	if g := f.Group(); g != nil {
		g.Workers = 2
	}
	k.Spawn("setup", func(p *sim.Proc) {
		c := f.NewClient(cl.Nodes[0], p)
		for _, d := range []string{"/hot", "/big"} {
			if err := c.Mkdir(d); err != nil {
				t.Errorf("mkdir %s: %v", d, err)
				return
			}
		}
		for i := 0; i < 12; i++ {
			if err := c.Create(fmt.Sprintf("/hot/f%d", i)); err != nil {
				t.Errorf("create: %v", err)
				return
			}
		}
		for n := 0; n < 4; n++ {
			for j := 0; j < 2; j++ {
				node, r := cl.Nodes[n], 2*n+j
				p.Spawn(fmt.Sprintf("w%d", r), func(q *sim.Proc) {
					c := f.NewClient(node, q)
					for i := 0; i < 40; i++ {
						name := fmt.Sprintf("/hot/f%d", (i*5+r)%12)
						switch {
						case i%10 == r%10:
							h, err := c.Open(name)
							if err != nil {
								t.Errorf("open: %v", err)
								return
							}
							c.Write(h, int64(512*(i+1)))
							c.Close(h)
						case i%7 == 3:
							if err := c.Create(fmt.Sprintf("/hot/n%d-%d", r, i)); err != nil {
								t.Errorf("create: %v", err)
								return
							}
						case i%4 == 1:
							if err := c.Create(fmt.Sprintf("/big/g%d-%d", r, i)); err != nil {
								t.Errorf("create big: %v", err)
								return
							}
						default:
							c.Stat(name)
						}
					}
				})
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	g := f.Group()
	if g == nil {
		return f, k.Dispatched()
	}
	var n int64
	for i := 0; i < g.NumDomains(); i++ {
		n += g.Kernel(i).Dispatched()
	}
	return f, n
}

// TestLeaseScheduleUnchanged pins the event schedule of the lease
// coherence path — multi-holder revocation fan-outs, delegation recalls
// and a split's revocation fan-out — to constants, on the single kernel
// and on 3 kernel domains: a change to how revocations are spawned,
// joined or delivered must leave the events dispatched and every
// counter exactly where they were.
func TestLeaseScheduleUnchanged(t *testing.T) {
	for _, c := range []struct {
		domains                     int
		dispatched, revoke, recalls int64
		print                       string
	}{
		{0, 2645, 243, 145, "end=80.442ms grants=482 dgrants=76 rpcs=360 splits=1 moved=32 hits=119 misses=61 revoked=249 stale=0"},
		{3, 3119, 236, 136, "end=92.295ms grants=480 dgrants=53 rpcs=358 splits=1 moved=32 hits=137 misses=59 revoked=257 stale=0"},
	} {
		f, dispatched := leasePinRun(t, c.domains)
		hits, misses, revoked, _ := f.CacheStats()
		got := fmt.Sprintf("end=%v grants=%d dgrants=%d rpcs=%d splits=%d moved=%d hits=%d misses=%d revoked=%d stale=%d",
			f.k.Now(), f.LeaseGrants, f.DelegationGrants, f.RPCCount(), len(f.Splits), f.SplitMoved,
			hits, misses, revoked, f.StaleReads)
		if dispatched != c.dispatched {
			t.Errorf("domains=%d: %d events dispatched, want %d", c.domains, dispatched, c.dispatched)
		}
		if f.Revocations != c.revoke || f.DelegationRecalls != c.recalls {
			t.Errorf("domains=%d: %d revocations and %d recalls, want %d and %d",
				c.domains, f.Revocations, f.DelegationRecalls, c.revoke, c.recalls)
		}
		if got != c.print {
			t.Errorf("domains=%d: fingerprint\n got %s\nwant %s", c.domains, got, c.print)
		}
		if len(f.Splits) != 1 || f.StaleReads != 0 {
			t.Errorf("domains=%d: %d splits and %d stale reads, want 1 and 0", c.domains, len(f.Splits), f.StaleReads)
		}
	}
}

// revokeRig is a lease-coherent 4-shard FS on holders+2 nodes: the
// holders read-lease one file, the mutator changes it, and the last
// node contends for the write delegation of the file's directory.
type revokeRig struct {
	f        *FS
	holders  []*nodeState
	mutator  *nodeState
	rival    *nodeState
	dir      string
	path     string
	fileAttr fs.Attr
}

func newRevokeRig(k *sim.Kernel, holders int) *revokeRig {
	cl := cluster.New(k, cluster.DefaultConfig(holders+2))
	r := &revokeRig{f: New(k, "revoke", leaseCfg(4)), dir: "/d", path: "/d/f",
		fileAttr: fs.Attr{Ino: 2, Type: fs.TypeRegular}}
	for _, n := range cl.Nodes {
		r.holders = append(r.holders, r.f.nodeState(n))
	}
	r.holders, r.mutator, r.rival = r.holders[:holders], r.holders[holders], r.holders[holders+1]
	return r
}

// revoke grants the file's lease to every holder, then revokes it for
// the mutator: one callback per holder, fanned out.
func (r *revokeRig) revoke(p *sim.Proc) {
	for _, st := range r.holders {
		r.f.grant(p, st, r.path, r.fileAttr)
	}
	r.f.revokePath(p, r.mutator, r.path)
}

// TestRevokeAllocFree pins that the lease coherence path allocates
// nothing once its pools are warm: a 4-holder revocation (grant lists
// reused, callback records pooled, the fan-out on pooled carriers), a
// delegation recall and a grant refresh.
func TestRevokeAllocFree(t *testing.T) {
	k := sim.New(1)
	r := newRevokeRig(k, 4)
	f := r.f
	var revoke, recall, refresh float64
	k.Spawn("server", func(p *sim.Proc) {
		revoke = testing.AllocsPerRun(200, func() { r.revoke(p) })
		recall = testing.AllocsPerRun(200, func() {
			f.dirCovered(p, r.mutator, r.dir)
			f.dirCovered(p, r.rival, r.dir) // recalls the mutator's delegation
		})
		refresh = testing.AllocsPerRun(200, func() { f.grant(p, r.holders[0], r.path, r.fileAttr) })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if f.Revocations < 4*200 || f.DelegationRecalls < 2*200 {
		t.Fatalf("%d revocations and %d recalls: the rig missed the coherence path", f.Revocations, f.DelegationRecalls)
	}
	for _, c := range []struct {
		what string
		avg  float64
	}{{"a 4-holder revocation", revoke}, {"two delegation recalls", recall}, {"a grant refresh", refresh}} {
		if c.avg != 0 {
			t.Errorf("%s allocated %.2f objects/op, want 0", c.what, c.avg)
		}
	}
}

// BenchmarkLeaseRevoke measures one revocation of a path leased by
// 1, 4 and 16 holders, including the grants that precede it: the
// layer cost of the lease coherence path.
func BenchmarkLeaseRevoke(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("holders=%d", n), func(b *testing.B) {
			k := sim.New(1)
			r := newRevokeRig(k, n)
			b.ReportAllocs()
			k.Spawn("server", func(p *sim.Proc) {
				r.revoke(p) // warm the pools
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r.revoke(p)
				}
			})
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
