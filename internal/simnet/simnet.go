// Package simnet models the network paths of a distributed file system:
// propagation latency, bandwidth-limited transfer and server-side thread
// pools with FIFO queueing.
//
// The model is intentionally at RPC granularity — the thesis shows that
// metadata performance in distributed file systems is dominated by
// request/response latency and server queueing (§4.6), not by wire
// details, so a latency + bandwidth + thread-pool abstraction captures
// the relevant behaviour.
//
// Servers can be marked down and up again (SetDown/SetUp), the substrate
// hook the failure-injection experiments (E19–E21, internal/fault) drive:
// a Conn.TryCall against a down server burns the client-observed RPC
// timeout and returns ErrDown instead of executing its service body.
//
// Connections are direction-agnostic: a Server can just as well stand
// for a client node's callback endpoint, with the metadata servers
// holding Conns to it. The lease-coherence protocol (internal/shard
// coherence.go, E22–E24) uses exactly that for its server→client
// revocation and delegation-recall callbacks, with a per-node callback
// thread pool so coherence traffic cannot deadlock against the MDS
// client/peer pools.
package simnet

import (
	"errors"
	"time"

	"dmetabench/internal/sim"
)

// ErrDown is returned by TryCall when the server is down: the client's
// request received no reply within its timeout.
var ErrDown = errors.New("simnet: server down")

// DefaultFailTimeout is the client-observed RPC timeout charged by
// TryCall against a down server when the connection sets none.
const DefaultFailTimeout = 500 * time.Millisecond

// Server is an RPC service endpoint with a bounded worker thread pool.
// Requests queue in arrival order when all threads are busy.
type Server struct {
	Name    string
	Threads *sim.Resource

	k     *sim.Kernel
	down  bool
	downs int64
	// rpcName and onewayName name the server-side processes of
	// cross-domain calls and one-way messages, built once here instead
	// of on every message.
	rpcName, onewayName string
}

// NewServer returns a server with the given number of worker threads.
// The kernel is where the server's state lives: when it belongs to a
// domain group, RPCs from other domains run their service bodies in
// that domain via the cross-domain rendezvous.
func NewServer(k *sim.Kernel, name string, threads int) *Server {
	return &Server{Name: name, k: k, Threads: sim.NewResource(k, "srv:"+name, threads),
		rpcName: "rpc:" + name, onewayName: "oneway:" + name}
}

// Kernel returns the kernel (and therefore the domain) the server's
// state lives on.
func (s *Server) Kernel() *sim.Kernel { return s.k }

// SetDown marks the server crashed: subsequent (and already queued)
// TryCall requests fail with ErrDown until SetUp. State changes take
// effect between operations — the simulator runs one process at a time,
// so a service body never observes the flag flipping mid-execution.
func (s *Server) SetDown() {
	if !s.down {
		s.down = true
		s.downs++
	}
}

// SetUp marks the server reachable again.
func (s *Server) SetUp() { s.down = false }

// IsDown reports whether the server is currently down.
func (s *Server) IsDown() bool { return s.down }

// Downs returns the number of times the server has gone down.
func (s *Server) Downs() int64 { return s.downs }

// Do runs service while holding one of the server's worker threads,
// without a network path: the execution-context half of Call. Servers
// that forward work to a peer service (clustered metadata servers) use
// it to charge the remote thread occupancy after paying the hop latency
// themselves.
func (s *Server) Do(p *sim.Proc, service func(p *sim.Proc)) {
	s.Threads.Acquire(p)
	service(p)
	s.Threads.Release()
}

// Conn is a client's path to a server: one-way latency plus a bandwidth
// limit shared by all users of the connection.
type Conn struct {
	srv *Server
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// Bandwidth in bytes per second; 0 means unlimited.
	Bandwidth int64
	// FailTimeout is the time a TryCall against a down server blocks
	// before reporting ErrDown (the client's RPC timeout). Zero means
	// DefaultFailTimeout.
	FailTimeout time.Duration
	// wire serializes transfers on this connection when bandwidth-limited.
	wire *sim.Resource
}

// NewConn returns a connection to srv with the given one-way latency and
// bandwidth (bytes/s, 0 = unlimited).
func NewConn(k *sim.Kernel, srv *Server, latency time.Duration, bandwidth int64) *Conn {
	c := &Conn{srv: srv, Latency: latency, Bandwidth: bandwidth}
	if bandwidth > 0 {
		c.wire = sim.NewResource(k, "wire:"+srv.Name, 1)
	}
	return c
}

// Server returns the connection's endpoint.
func (c *Conn) Server() *Server { return c.srv }

// transferTime returns the serialization delay for n bytes.
func (c *Conn) transferTime(n int64) time.Duration {
	if c.Bandwidth <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / float64(c.Bandwidth) * float64(time.Second))
}

// send models moving n bytes across the connection in one direction.
func (c *Conn) send(p *sim.Proc, n int64) {
	if c.wire != nil && n > 0 {
		c.wire.Use(p, c.transferTime(n))
	}
	p.Sleep(c.Latency)
}

// Body is the server-side half of one RPC. Serve runs while holding a
// server thread, in the server's kernel domain, and charges whatever
// virtual time the operation costs there; it hands its results back by
// writing them into the receiver, which the caller reads once the call
// returns.
//
// A body is a pointer to a struct that already lives on the heap —
// typically a request held by value on a long-lived client, reused for
// each of its (strictly sequential) synchronous RPCs — so passing it
// allocates nothing, even though the cross-domain path stores it in a
// message. One body therefore serves both kernel layouts without
// taxing the single-kernel hot path.
type Body interface {
	Serve(sp *sim.Proc)
}

// BodyFunc adapts a closure to Body, for bodies off the hot path (the
// closure escapes, so it costs one allocation per call).
type BodyFunc func(sp *sim.Proc)

// Serve calls f.
func (f BodyFunc) Serve(sp *sim.Proc) { f(sp) }

// Delay is a Body that only occupies a server thread for its duration.
type Delay time.Duration

// Serve sleeps the delay.
func (d *Delay) Serve(sp *sim.Proc) { sp.Sleep(time.Duration(*d)) }

// callCtx is the per-RPC context the cross-domain path threads through
// sim.Proc.Ctx: service bodies register reply work on it via Defer.
type callCtx struct {
	thunks []func()
	// crashed records that the server went down while the request sat
	// in its queue (failable calls only).
	crashed bool
}

// Defer registers fn as reply-time work for the RPC whose service body
// is running on p: state the protocol conceptually ships back to the
// client (cache fills, lease grants) must mutate client-side structures
// in the client's domain, not the server's. On the inline (same-kernel)
// path fn runs immediately; on the cross-domain path it runs in the
// client's process right after the reply arrives, which is both
// deterministic and race-free (the client resumes only after a window
// barrier). Outside any RPC, fn runs immediately. Bodies that can write
// their results into their own fields instead — for the caller to apply
// after Call returns — need no Defer at all.
func Defer(p *sim.Proc, fn func()) {
	if cc, ok := p.Ctx.(*callCtx); ok && cc != nil {
		cc.thunks = append(cc.thunks, fn)
		return
	}
	fn()
}

// Deferred reports whether Defer(p, fn) would queue fn for reply
// delivery rather than run it inline — i.e. whether p is a cross-domain
// service body. Hot paths branch on it so the inline (single-kernel)
// case performs the work directly instead of allocating a closure that
// Defer would only call on the spot.
func Deferred(p *sim.Proc) bool {
	cc, ok := p.Ctx.(*callCtx)
	return ok && cc != nil
}

// cross reports whether an RPC from p to the server must rendezvous
// across domains.
func (c *Conn) cross(p *sim.Proc) bool {
	return c.srv.k != p.Kernel() && p.Kernel().Group() != nil &&
		p.Kernel().Group() == c.srv.k.Group()
}

// failTimeout returns the effective client RPC timeout.
func (c *Conn) failTimeout() time.Duration {
	if c.FailTimeout > 0 {
		return c.FailTimeout
	}
	return DefaultFailTimeout
}

// Call performs a synchronous RPC: request transfer and propagation,
// queueing for a server thread, the body, then the reply path. When the
// caller runs in another kernel domain than the server, the body
// executes in the server's domain (a fresh process created by the
// message delivery) while the caller blocks; the one-way latency is
// carried by the message timestamps instead of caller sleeps, and
// Defer'd reply work runs in the caller's domain after it resumes. The
// virtual-time cost is identical either way.
func (c *Conn) Call(p *sim.Proc, reqBytes, respBytes int64, b Body) {
	_ = c.rpc(p, reqBytes, respBytes, b, false)
}

// TryCall is Call against a server that may be down. A request to a down
// server blocks for the connection's FailTimeout (the client waiting out
// its RPC timer) and returns ErrDown without running the body; a request
// that was already queued for a worker thread when the server crashed
// fails the same way once dequeued (cross-domain: after the wasted round
// trip). Fault-tolerant clients wrap TryCall in a retry loop with
// deterministic backoff (internal/shard).
func (c *Conn) TryCall(p *sim.Proc, reqBytes, respBytes int64, b Body) error {
	return c.rpc(p, reqBytes, respBytes, b, true)
}

// rpc is Call (failable false) and TryCall (failable true).
func (c *Conn) rpc(p *sim.Proc, reqBytes, respBytes int64, b Body, failable bool) error {
	srv := c.srv
	// The down flag is safe to read from any domain: under a domain
	// group it only flips at sync points, where every domain is parked
	// (the window barrier is the happens-before edge).
	if failable && srv.down {
		p.Sleep(c.failTimeout())
		return ErrDown
	}
	if c.cross(p) {
		return c.rpcCross(p, reqBytes, respBytes, b, failable)
	}
	c.send(p, reqBytes)
	srv.Threads.Acquire(p)
	if failable && srv.down {
		// The server crashed while this request sat in its queue: the
		// service never ran, the client times out like an unsent request.
		srv.Threads.Release()
		p.Sleep(c.failTimeout())
		return ErrDown
	}
	b.Serve(p)
	srv.Threads.Release()
	c.send(p, respBytes)
	return nil
}

// rpcCross is the cross-domain rendezvous half of rpc. A crash landing
// while the request is queued is detected in the server's domain; the
// client then waits out its RPC timer after the (wasted) round trip.
func (c *Conn) rpcCross(p *sim.Proc, reqBytes, respBytes int64, b Body, failable bool) error {
	if c.wire != nil && reqBytes > 0 {
		c.wire.Use(p, c.transferTime(reqBytes))
	}
	cc := &callCtx{}
	saved := p.Ctx
	p.Ctx = cc
	srv := c.srv
	sim.Call(p, srv.k, c.Latency, srv.rpcName, func(q *sim.Proc) {
		srv.Threads.Acquire(q)
		if failable && srv.down {
			srv.Threads.Release()
			cc.crashed = true
			return
		}
		b.Serve(q)
		srv.Threads.Release()
	})
	p.Ctx = saved
	if cc.crashed {
		p.Sleep(c.failTimeout())
		return ErrDown
	}
	for _, fn := range cc.thunks {
		fn()
	}
	if c.wire != nil && respBytes > 0 {
		c.wire.Use(p, c.transferTime(respBytes))
	}
	return nil
}

// OneWay models a fire-and-forget message (used for asynchronous
// write-back flushes): the sender pays the transfer cost and the body
// runs in a spawned process after the propagation delay. The body
// outlives the call, so it must not be a request the sender reuses.
func (c *Conn) OneWay(p *sim.Proc, reqBytes int64, b Body) {
	if c.wire != nil && reqBytes > 0 {
		c.wire.Use(p, c.transferTime(reqBytes))
	}
	lat := c.Latency
	srv := c.srv
	if c.cross(p) {
		sim.Post(p, srv.k, lat, srv.onewayName, func(q *sim.Proc) {
			srv.Threads.Acquire(q)
			b.Serve(q)
			srv.Threads.Release()
		})
		return
	}
	p.Spawn(srv.onewayName, func(q *sim.Proc) {
		q.Sleep(lat)
		srv.Threads.Acquire(q)
		b.Serve(q)
		srv.Threads.Release()
	})
}

// RTT returns the request/response round-trip latency of the connection
// (excluding transfer and service time).
func (c *Conn) RTT() time.Duration { return 2 * c.Latency }
