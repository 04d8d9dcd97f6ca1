package shard

// Kernel-domain plumbing for the sharded MDS (conservative-lookahead
// parallel simulation, internal/sim domain.go). With Config.Domains > 1
// the cell's event processing partitions into domains: domain 0 runs
// the clients (workers, the measurement master, fault injectors) and
// domains 1..D-1 each run a subset of the shards — every shard's
// thread pools, WAFL, backend, namespace slice and directory locks
// live on its own kernel, and RPCs, interconnect hops, mirrors and
// coherence callbacks become timestamped cross-domain messages.
//
// The correctness discipline has three parts:
//
//   - Slice-state ownership. A slice's namespace, journal, lease table
//     and lock map belong to the domain of the server CURRENTLY SERVING
//     it. Service bodies execute in that domain, so the single-threaded
//     invariant every data structure relies on holds per domain.
//     Ownership moves only at sync points (below), and the window
//     barrier is the happens-before edge for the transfer.
//
//   - Sync points. Rare global transitions — crash, takeover, failback,
//     epoch bumps, serving[] changes, split phase 1 — run at registered
//     virtual instants where every domain is parked at exactly that
//     time. Each transition is one body for both kernels, written
//     against the service runtime: Runtime.AtSync starts it,
//     Runtime.After chains its later steps, and Runtime.SyncDelay is
//     how long a caller waits for its own transition to land (zero on
//     the single kernel, where AtSync runs inline and After is a
//     timer). Between sync points that state is immutable, so the hot
//     paths (routing, retry redirection, split levels, down checks)
//     read it from any domain without synchronization.
//
//   - Forwarding. When a request discovers mid-body that the state it
//     must touch lives in another domain — a split or failback re-homed
//     the entry while it waited in a queue — the contacted server
//     forwards the work over the interconnect (applyState), paying a
//     real hop where the single-kernel model let it "proxy" for free.
//     The same rule routes lease-table operations whose owner slice is
//     not the executing slice (withLeaseSlice): a distributed lock
//     manager pays messages between servers. Both carry their work as
//     typed values (steps, lease ops), so only the forwarding branch
//     builds a closure.
//
// With Domains <= 1 no cross-domain machinery engages: forwarding and
// lease routing run inline, sync points run immediately, and the output
// is byte-identical to the single-heap kernel's.

import (
	"sort"
	"sync/atomic"

	"dmetabench/internal/fs"
	"dmetabench/internal/sim"
)

// domained reports whether the FS runs on a multi-domain group.
func (f *FS) domained() bool { return f.rt.Domained() }

// Group exposes the FS's domain group (nil when Domains <= 1).
func (f *FS) Group() *sim.DomainGroup { return f.rt.Group() }

// kFor returns the kernel server i lives on (f.k when undomained).
func (f *FS) kFor(i int) *sim.Kernel { return f.rt.KernelFor(i) }

// sliceKernel returns the kernel owning slice s's state — the kernel of
// the server currently serving it. serving[] changes only at sync
// points, so the read is safe from any domain.
func (f *FS) sliceKernel(s int) *sim.Kernel { return f.kFor(f.serving[s]) }

// peerLeg runs body on ps's peer pool across the interconnect:
// coordination CPU on the caller, the round trip, and the body holding
// one peer thread. When ps lives in another domain the leg is a
// cross-domain rendezvous — the one-way latencies ride the message
// timestamps and the body runs in ps's domain while the caller blocks;
// the virtual-time cost is identical to the inline path.
func (f *FS) peerLeg(sp *sim.Proc, ps *shardSrv, name string, body func(q *sim.Proc)) {
	sp.Sleep(f.cfg.CrossShardOverhead)
	if dk := f.kFor(ps.index); f.domained() && dk != sp.Kernel() {
		sim.Call(sp, dk, f.cfg.CrossShardLatency, name, func(q *sim.Proc) {
			ps.peer.Threads.Acquire(q)
			q.Sleep(f.cfg.CrossShardOverhead)
			body(q)
			ps.peer.Threads.Release()
		})
		return
	}
	sp.Sleep(f.cfg.CrossShardLatency)
	ps.peer.Do(sp, func(q *sim.Proc) {
		q.Sleep(f.cfg.CrossShardOverhead)
		body(q)
	})
	sp.Sleep(f.cfg.CrossShardLatency)
}

// applyState runs step s against slice state. When the slice's owning
// domain is not the executing one — a split or a failback re-homed it
// while this request sat in a queue or paid its service charge — the
// contacted server forwards the work to the current owner over the
// interconnect: s then runs in the owner's domain on its peer pool,
// with at set to the owning server. Undomained (and in the common
// domained case where ownership did not move) s runs inline with
// at = srv, exactly the single-kernel proxying path. The forwarding
// closure is built only on the branch that forwards.
func (f *FS) applyState(sp *sim.Proc, state, srv *shardSrv, s step) {
	if f.domained() && f.sliceKernel(state.index) != sp.Kernel() {
		own := f.srvFor(state.index)
		f.hop(sp, own, func(q *sim.Proc) { s.run(q, own) })
		return
	}
	s.run(sp, srv)
}

// leaseOp is one operation on a slice's lease table, carried as a value
// so withLeaseSlice can run it where the table lives.
type leaseOp struct {
	kind  leaseKind
	slice int
	// st is the client node: the mutator, the grantee, or the would-be
	// delegation holder.
	st   *nodeState
	path string
	a    fs.Attr // leaseIssue: the attributes granted
}

type leaseKind uint8

const (
	leaseRevoke  leaseKind = iota // revokePath(path), sparing st's silent drop
	leaseCover                    // dirCovered: the write-delegation protocol
	leaseRecall                   // recall another node's delegation on path
	leaseIssue                    // grantAt
	leaseUndeleg                  // forget path's delegation
)

// withLeaseSlice runs op in the domain owning its slice's lease table,
// forwarding over the interconnect when the caller executes elsewhere —
// cross-server lease management costs a message, the way a distributed
// lock manager's does. Undomained it is a direct call, and only the
// forwarding branch copies op into a closure. It reports dirCovered's
// answer for leaseCover.
func (f *FS) withLeaseSlice(p *sim.Proc, op leaseOp) bool {
	if f.domained() && f.sliceKernel(op.slice) != p.Kernel() {
		fwd, covered := op, false
		f.hop(p, f.srvFor(op.slice), func(q *sim.Proc) { covered = f.runLease(q, fwd) })
		return covered
	}
	return f.runLease(p, op)
}

// runLease performs op; the caller executes in the owning domain.
func (f *FS) runLease(q *sim.Proc, op leaseOp) bool {
	t := f.leases[op.slice]
	switch op.kind {
	case leaseRevoke:
		f.revokePath(q, op.st, op.path)
	case leaseCover:
		return f.dirCovered(q, op.st, op.path)
	case leaseRecall:
		if holder, ok := t.deleg[op.path]; ok && holder != op.st {
			addI64(&f.DelegationRecalls, 1)
			f.callback(q, holder, op.path)
			delete(t.deleg, op.path)
		}
	case leaseIssue:
		f.grantAt(q, op.st, op.path, op.a, op.slice)
	case leaseUndeleg:
		delete(t.deleg, op.path)
	}
	return false
}

// persistAt is persist, except that work forwarded onto a peer pool
// (srv != orig) commits per-op: peer-pool threads must never wait on a
// group-commit batch whose leader may need this very pool for its
// mirror round trip — the same acyclicity rule the cross-shard rename
// migrate follows.
func (f *FS) persistAt(q *sim.Proc, state, srv, orig *shardSrv, kind fs.OpKind, path string, logBytes int64) {
	if srv != orig {
		srv.be.log(q, logBytes)
		f.commit(q, state, srv, kind, path)
		return
	}
	f.persist(q, state, srv, kind, path, logBytes)
}

// recordCompaction appends one LSM compaction event. Under domains the
// shards stall concurrently, so the slice is mutex-guarded and kept
// ordered by (At, Shard) — the set of events is deterministic, their
// wall-clock arrival order is not.
func (f *FS) recordCompaction(ev CompactionEvent) {
	f.evMu.Lock()
	defer f.evMu.Unlock()
	i := sort.Search(len(f.Compactions), func(i int) bool {
		c := f.Compactions[i]
		if c.At != ev.At {
			return c.At > ev.At
		}
		return c.Shard > ev.Shard
	})
	f.Compactions = append(f.Compactions, CompactionEvent{})
	copy(f.Compactions[i+1:], f.Compactions[i:])
	f.Compactions[i] = ev
}

// addI64 bumps a counter that service bodies increment from several
// domains concurrently. Sums are order-independent, so the totals stay
// deterministic; undomained the atomic op is just an add.
func addI64(ctr *int64, d int64) { atomic.AddInt64(ctr, d) }

// loadI64 reads such a counter (safe during a run from any domain).
func loadI64(ctr *int64) int64 { return atomic.LoadInt64(ctr) }
