// Package sim implements a deterministic, cooperative discrete-event
// simulation kernel.
//
// A Kernel owns a virtual clock and a set of processes. Each process runs
// on a coroutine, and exactly one process executes at a time: a process
// runs until it blocks (Sleep, semaphore wait, barrier, queue receive ...)
// and yields back to the kernel loop, which resumes the process with the
// earliest pending event.
// Ties are broken by event sequence number, so runs are fully
// deterministic: the same program produces the same event order and the
// same virtual timings on every run.
//
// The kernel is the substrate for every simulated subsystem in this
// repository: cluster nodes, networks, storage devices and the file system
// models are all built from sim processes and sim resources. Strict
// determinism is what makes the thesis methodology reproducible here: the
// per-interval traces and COV analysis of §3.2.5/§3.3.9 — and the fault
// timelines injected on top of them — come out byte-identical for a
// given seed.
//
// Scheduling is built for throughput: the event queue is a concrete-typed
// binary heap (no interface boxing, storage reused across events); a
// process runs on a pooled carrier coroutine (iter.Pull), so resuming and
// parking it are direct coroutine switches that never go through the Go
// scheduler, and carriers are reused across processes, kernels and runs;
// and a process whose wake-up would be the next event anyway (a Sleep with
// no earlier pending event) simply advances the clock and keeps running —
// no heap traffic and no switch at all. A fork/join fan-out (Proc.Fan)
// runs its children on carrier-embedded procs and recycles its record,
// so it allocates nothing while scheduling exactly what a Spawn + Join
// loop would.
package sim

import (
	"fmt"
	"iter"
	"math"
	"math/rand"
	"sync"
	"time"
)

// Time is virtual time since the start of the simulation.
type Time = time.Duration

// forever is the run horizon of an unbounded Run call.
const forever = Time(math.MaxInt64)

// event is a scheduled wake-up of a process.
type event struct {
	at  Time
	seq int64
	p   *Proc
}

// lessThan orders events by (at, seq); seq ties never occur.
func (a event) lessThan(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// ordered is satisfied by heap elements that know their own ordering.
type ordered[T any] interface {
	lessThan(T) bool
}

// minHeap is a concrete-typed binary min-heap shared by the kernel event
// queue and the synchronization wait queues. Compared to container/heap
// it avoids the interface{} boxing that costs one allocation per entry;
// the backing slice is reused for the lifetime of the kernel, so
// steady-state scheduling does not allocate.
type minHeap[T ordered[T]] struct {
	e []T
}

func (h *minHeap[T]) len() int { return len(h.e) }

func (h *minHeap[T]) push(v T) {
	e := append(h.e, v)
	i := len(e) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e[i].lessThan(e[parent]) {
			break
		}
		e[i], e[parent] = e[parent], e[i]
		i = parent
	}
	h.e = e
}

func (h *minHeap[T]) pop() T {
	e := h.e
	top := e[0]
	n := len(e) - 1
	e[0] = e[n]
	var zero T
	e[n] = zero // clear the popped slot so interior pointers can be collected
	e = e[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && e[r].lessThan(e[l]) {
			m = r
		}
		if !e[m].lessThan(e[i]) {
			break
		}
		e[i], e[m] = e[m], e[i]
		i = m
	}
	h.e = e
	return top
}

// eventHeap is the kernel's scheduling queue.
type eventHeap = minHeap[event]

// Kernel is a discrete-event simulation kernel. The zero value is not
// usable; call New.
type Kernel struct {
	now     Time
	seq     int64
	queue   eventHeap
	live    int // procs started and not yet finished
	daemons int // live daemon procs (ignored for termination)
	blocked int // procs waiting on a condition (not in queue)
	rng     *rand.Rand
	procSeq int
	horizon Time    // events beyond this virtual time stay queued
	procs   []*Proc // all spawned procs, for deadlock diagnostics
	// dispatched counts events executed by this kernel — in a domain
	// group it is the per-domain work share, the quantity the parallel
	// speedup bound is computed from (DESIGN.md, "Parallel DES").
	dispatched int64
	// dom is non-nil when this kernel is one domain of a DomainGroup
	// (domain.go); scheduling then runs in lookahead windows and
	// termination is decided at group level.
	dom *Domain
	// free holds this kernel's idle carriers. Only the goroutine running
	// the kernel touches it, so it needs no lock; a terminating run hands
	// it to the process-wide idle list.
	free []*carrier
	// fans holds this kernel's idle fan-out records (Proc.Fan), touched
	// only by the goroutine running the kernel, like free.
	fans []*Fan
}

// New returns a kernel whose random source is seeded with seed.
func New(seed int64) *Kernel {
	return &Kernel{
		rng:     rand.New(rand.NewSource(seed)),
		horizon: forever,
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source. It must only be
// used from running sim processes (or before Run).
func (k *Kernel) Rand() *rand.Rand { return k.rng }

func (k *Kernel) nextSeq() int64 {
	k.seq++
	return k.seq
}

// schedule enqueues a wake-up for p at time at (>= now).
func (k *Kernel) schedule(p *Proc, at Time) {
	if at < k.now {
		at = k.now
	}
	k.queue.push(event{at: at, seq: k.nextSeq(), p: p})
}

// scheduleSeq enqueues a wake-up under a caller-provided sequence number
// without advancing the kernel counter. Cross-domain delivery uses it so
// a message's heap position is intrinsic to the send (sender sequence and
// domain), never to delivery timing — the local sequence stream stays
// identical whatever the window structure (see domain.go, msgSeqBase).
func (k *Kernel) scheduleSeq(p *Proc, at Time, seq int64) {
	if at < k.now {
		at = k.now
	}
	k.queue.push(event{at: at, seq: seq, p: p})
}

// runsBefore reports whether some queued event runs strictly before a
// wake-up scheduled now at time at would: it is earlier, or ties with a
// local (pre-msgSeqBase) sequence number, which is necessarily older
// than the sequence a fresh wake-up would draw.
func (k *Kernel) runsBefore(at Time) bool {
	if k.queue.len() == 0 {
		return false
	}
	h := &k.queue.e[0]
	return h.at < at || (h.at == at && h.seq < msgSeqBase)
}

// dispatch pops the earliest event and resumes its process until the
// process parks or finishes. Only the kernel loops (run, runWindow) call
// it: a process never resumes another, because coroutines must not nest.
func (k *Kernel) dispatch() {
	ev := k.queue.pop()
	if ev.p.done {
		panic(fmt.Sprintf("sim: stale event at %v (seq %d) for finished proc %q", ev.at, ev.seq, ev.p.name))
	}
	if ev.at > k.now {
		k.now = ev.at
	}
	k.dispatched++
	ev.p.c.next()
}

// Dispatched returns the number of events this kernel has executed. In a
// domain group each member kernel counts its own events, so the per-
// domain shares expose how evenly the parallel workload is distributed.
func (k *Kernel) Dispatched() int64 { return k.dispatched }

// Proc is a simulated process. Procs are created with Kernel.Spawn or
// Proc.Spawn and must only call kernel methods while running (i.e. from
// their own body, between resumptions).
type Proc struct {
	k      *Kernel
	c      *carrier // the coroutine running this proc's body
	id     int
	name   string
	done   bool
	daemon bool
	// slot is this proc's index in k.procs; finished procs are
	// swap-removed so the diagnostics slice never pins dead procs (the
	// domained substrate spawns one short-lived proc per cross-domain
	// message, and a growing graveyard is pure GC scan load).
	slot int
	// waiters are procs blocked in Join on this proc.
	waiters []*Proc
	// blockedOn is a short description of the current blocking reason,
	// used in deadlock reports.
	blockedOn string
	// Ctx is a free slot for harness layers (internal/simnet threads its
	// cross-domain call context through it); the kernel never touches it.
	Ctx any
}

// ID returns the process id (assigned in spawn order, starting at 1).
func (p *Proc) ID() int { return p.id }

// Name returns the name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Spawn starts fn as a new simulated process scheduled at the current
// virtual time. It may be called before Run (to create initial processes)
// or from a running process.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.spawn(name, fn, false)
}

// SpawnDaemon starts fn as a daemon process: Run and RunFor terminate as
// soon as no non-daemon processes remain live, regardless of pending
// daemon events. Background services (consistency-point writers, journal
// committers, cache flushers) are daemons.
func (k *Kernel) SpawnDaemon(name string, fn func(p *Proc)) *Proc {
	return k.spawn(name, fn, true)
}

// spawnAt is spawn with the first scheduling at a future time instead of
// now — the delivery primitive for cross-domain messages.
func (k *Kernel) spawnAt(name string, at Time, fn func(p *Proc)) *Proc {
	p := k.spawnProc(name, fn, false)
	k.schedule(p, at)
	return p
}

func (k *Kernel) spawn(name string, fn func(p *Proc), daemon bool) *Proc {
	p := k.spawnProc(name, fn, daemon)
	k.schedule(p, k.now)
	return p
}

func (k *Kernel) spawnProc(name string, fn func(p *Proc), daemon bool) *Proc {
	c := k.carrier()
	p := &Proc{k: k, name: name, daemon: daemon}
	k.start(c, p, fn)
	return p
}

// spawnMsgAt schedules a delivered message's body at its arrival time,
// under the caller-provided event sequence number, on the Proc embedded
// in a pooled carrier: cross-domain delivery runs one short-lived proc per
// message, and reusing the carrier's Proc keeps delivery off the
// allocator. The *Proc never escapes to callers (deliver() does not return
// it), so the reuse can never confuse a Join — which is why plain Spawn
// allocates a fresh Proc. The body is m.fn for a Post; for a Call request
// the carrier keeps the handler, caller and reply delay and runs serveCall.
func (k *Kernel) spawnMsgAt(m *message, seq int64) {
	c := k.carrier()
	c.msg = Proc{k: k, name: m.name}
	fn := m.fn
	if m.h != nil {
		c.h, c.caller, c.reply = m.h, m.caller, m.reply
		fn = serveCall
	}
	k.start(c, &c.msg, fn)
	k.scheduleSeq(&c.msg, m.at, seq)
}

// start registers p as live and binds it to carrier c, which runs fn on
// p's first dispatch.
func (k *Kernel) start(c *carrier, p *Proc, fn func(p *Proc)) {
	k.procSeq++
	p.id = k.procSeq
	p.c = c
	c.p, c.fn = p, fn
	k.live++
	if p.daemon {
		k.daemons++
	}
	p.slot = len(k.procs)
	k.procs = append(k.procs, p)
}

// carrier is a pooled coroutine that runs proc bodies one after another.
// The kernel loop resumes it with next; the running proc gives control
// back with yield (park). Between bodies a carrier sits on its kernel's
// free list, or on the process-wide idle list once that kernel's run
// terminated. A carrier whose body panicked is dead (iter.Pull re-raises
// the panic in the next caller) and never returns to a pool.
type carrier struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	p     *Proc         // proc currently bound to the carrier
	fn    func(p *Proc) // p's body
	msg   Proc          // reusable proc for message delivery and fan-out children
	// h, caller and reply are the pending Call request msg serves (see
	// serveCall). They live here rather than on Proc so that every
	// other proc stays one allocation size class smaller.
	h      Handler
	caller *Proc
	reply  Time
	// fan and kid identify the fan-out msg runs as child kid of, while
	// it runs (see Fan.Go).
	fan *Fan
	kid int
}

// idle holds carriers released by terminated runs, shared by all kernels.
// It is not a sync.Pool: the GC may drop pooled items, and a dropped
// carrier's goroutine would stay parked forever.
var idle struct {
	sync.Mutex
	c []*carrier
}

// carrier takes an idle carrier from the kernel's free list, else from the
// process-wide idle list, else starts a new one.
func (k *Kernel) carrier() *carrier {
	if n := len(k.free); n > 0 {
		c := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return c
	}
	idle.Lock()
	if n := len(idle.c); n > 0 {
		c := idle.c[n-1]
		idle.c[n-1] = nil
		idle.c = idle.c[:n-1]
		idle.Unlock()
		return c
	}
	idle.Unlock()
	c := new(carrier)
	c.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		for {
			c.p.k.execute(c.p, c.fn)
			c.p, c.fn = nil, nil
			yield(struct{}{})
		}
	})
	return c
}

// execute runs p's body to completion, then does the exit bookkeeping and
// returns p's carrier to the kernel's free list.
func (k *Kernel) execute(p *Proc, fn func(p *Proc)) {
	fn(p)
	p.done = true
	k.removeProc(p)
	k.live--
	if p.daemon {
		k.daemons--
	}
	for _, w := range p.waiters {
		w.blockedOn = ""
		k.blocked--
		k.schedule(w, k.now)
	}
	p.waiters = nil
	k.free = append(k.free, p.c)
}

// release hands the kernel's idle carriers to the process-wide idle list,
// dropping their message procs so the pool pins nothing of this run.
// Runs call it when they terminate, not when they stop at a horizon.
func (k *Kernel) release() {
	if len(k.free) == 0 {
		return
	}
	for _, c := range k.free {
		c.msg = Proc{}
	}
	idle.Lock()
	idle.c = append(idle.c, k.free...)
	idle.Unlock()
	clear(k.free)
	k.free = k.free[:0]
}

// removeProc swap-removes a finished proc from the diagnostics slice.
// It runs on the exiting proc's carrier while the kernel loop waits in
// next, so nothing else touches k.procs concurrently.
func (k *Kernel) removeProc(p *Proc) {
	last := len(k.procs) - 1
	if p.slot < 0 || p.slot > last || k.procs[p.slot] != p {
		return
	}
	q := k.procs[last]
	k.procs[p.slot] = q
	q.slot = p.slot
	k.procs[last] = nil
	k.procs = k.procs[:last]
	p.slot = -1
}

// Spawn starts a child process from a running process.
func (p *Proc) Spawn(name string, fn func(p *Proc)) *Proc {
	return p.k.Spawn(name, fn)
}

// AfterFunc spawns a daemon process that sleeps d of virtual time and
// then runs fn — the timer primitive behind deterministic disturbance
// and fault injection (internal/fault). Because the timer is a daemon,
// it only fires while non-daemon processes keep the simulation alive: an
// injection scheduled beyond the end of the workload never runs, and
// never prevents termination.
func (k *Kernel) AfterFunc(name string, d Time, fn func(p *Proc)) *Proc {
	return k.SpawnDaemon(name, func(p *Proc) {
		p.Sleep(d)
		fn(p)
	})
}

// park yields control back to the kernel loop and returns when the loop
// resumes the process.
func (p *Proc) park(reason string) {
	p.blockedOn = reason
	p.c.yield(struct{}{})
	p.blockedOn = ""
}

// Sleep suspends the process for d of virtual time. Negative durations
// sleep zero time (yield).
func (p *Proc) Sleep(d Time) {
	k := p.k
	if d < 0 {
		d = 0
	}
	at := k.now + d
	if at < k.now {
		// Overflow (sleep-forever idioms): schedule() would clamp the
		// wake-up to now; the fast path must not move the clock backwards.
		at = k.now
	}
	// Fast path: if no pending event precedes this wake-up, the scheduler
	// would hand control straight back to this process — advance the
	// clock in place and skip the heap and the coroutine switch entirely.
	// Ties go to a queued local event (its sequence number is older), but
	// a delivered cross-domain message carries an intrinsic sequence at or
	// above msgSeqBase and loses the tie to a local wake-up — exactly as
	// the slow path would order them. The message tie MUST take the fast
	// path: the slow path would pop this proc's own wake-up (its fresh
	// local sequence sorts below msgSeqBase) and self-deadlock on resume.
	if at <= k.horizon && !k.runsBefore(at) {
		k.now = at
		return
	}
	k.schedule(p, at)
	p.park("sleep")
}

// Yield reschedules the process at the current time, letting other
// processes scheduled for the same instant run first.
func (p *Proc) Yield() { p.Sleep(0) }

// block suspends the process without scheduling a wake-up; some other
// process must call k.wake(p). Used by synchronization primitives.
func (p *Proc) block(reason string) {
	p.k.blocked++
	p.park(reason)
}

// wake schedules a blocked process to resume at the current time.
func (k *Kernel) wake(p *Proc) {
	k.blocked--
	k.schedule(p, k.now)
}

// joinReason is the blocking reason of a proc in Join. The joined proc
// is named only when a deadlock is reported (blockReason), so Join
// blocks without building a string.
const joinReason = "join"

// Join blocks until q has finished.
func (p *Proc) Join(q *Proc) {
	if q.done {
		return
	}
	q.waiters = append(q.waiters, p)
	p.block(joinReason)
}

// blockReason describes why p is blocked, for deadlock reports: its
// blocking reason, with a Join or a Fan.Wait naming the proc it waits
// for.
func (p *Proc) blockReason() string {
	if p.blockedOn != joinReason {
		return p.blockedOn
	}
	for _, q := range p.k.procs {
		if f := q.c.fan; f != nil && f.p == p && f.wait >= 0 && f.kids[f.wait] == q {
			return joinReason + ":" + q.name
		}
		for _, w := range q.waiters {
			if w == p {
				return joinReason + ":" + q.name
			}
		}
	}
	return joinReason
}

// Fan is a fork/join fan-out that allocates nothing in steady state:
// the proc that took it from Proc.Fan starts children with Go, then
// blocks in Wait until all of them have finished. It schedules exactly
// what a loop of Spawn calls followed by a loop of Joins would: each
// child draws the proc ID and event sequence number Spawn would, and
// Wait waits for the children in spawn order. Children run on the Proc
// embedded in a pooled carrier, like delivered messages (spawnMsgAt),
// and never escape to callers, so their reuse cannot confuse a Join;
// the record returns to its kernel when Wait does. A Fan serves one
// fan-out: Go any number of times, then Wait once.
type Fan struct {
	p *Proc
	// kids holds each child's proc while it runs, nil once it finished.
	kids []*Proc
	// wait is the index of the child p is blocked on in Wait, or -1.
	wait int
}

// Fan returns an idle fan-out record of p's kernel, bound to p.
func (p *Proc) Fan() *Fan {
	k := p.k
	var f *Fan
	if n := len(k.fans); n > 0 {
		f = k.fans[n-1]
		k.fans[n-1] = nil
		k.fans = k.fans[:n-1]
	} else {
		f = new(Fan)
	}
	f.p, f.wait = p, -1
	return f
}

// Go starts h as a child process named name, scheduled at the current
// virtual time.
func (f *Fan) Go(name string, h Handler) {
	k := f.p.k
	c := k.carrier()
	c.msg = Proc{k: k, name: name}
	c.h, c.fan, c.kid = h, f, len(f.kids)
	f.kids = append(f.kids, &c.msg)
	k.start(c, &c.msg, serveFan)
	k.schedule(&c.msg, k.now)
}

// Wait blocks until every child started with Go has finished, then
// returns the record to its kernel.
func (f *Fan) Wait() {
	p := f.p
	for i := range f.kids {
		if f.kids[i] != nil {
			f.wait = i
			p.block(joinReason)
		}
	}
	f.kids = f.kids[:0]
	f.p = nil
	p.k.fans = append(p.k.fans, f)
}

// serveFan is the body of a fan-out child: it runs the handler, then
// wakes the parent if Wait is blocked on this child — the wake-up a
// Join waiter gets when the joined proc exits.
func serveFan(q *Proc) {
	c := q.c
	h := c.h
	c.h = nil // the carrier goes back to a pool
	h.Handle(q)
	f, i := c.fan, c.kid
	c.fan = nil
	f.kids[i] = nil
	if f.wait == i {
		f.wait = -1
		q.k.wake(f.p)
	}
}

// DeadlockError reports the simulation stopping with live, blocked
// processes and no pending events.
type DeadlockError struct {
	Blocked []string // "name (reason)" per blocked proc
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock: %d blocked process(es): %v", len(e.Blocked), e.Blocked)
}

// Run executes the simulation until no events remain. It returns a
// *DeadlockError if live processes remain blocked with an empty event
// queue, and nil otherwise. On a kernel that belongs to a DomainGroup,
// Run drives the whole group's window loop — callers need not know
// whether the simulation was partitioned.
func (k *Kernel) Run() error {
	if k.dom != nil {
		return k.dom.g.Run()
	}
	return k.run(forever)
}

func (k *Kernel) blockedProcNames() []string {
	var names []string
	for _, p := range k.procs {
		if !p.done && !p.daemon && p.blockedOn != "" {
			names = append(names, fmt.Sprintf("%s (%s)", p.name, p.blockReason()))
		}
	}
	if len(names) == 0 {
		names = append(names, fmt.Sprintf("%d live (details unavailable)", k.live))
	}
	return names
}

// RunFor executes the simulation until virtual time t or until no events
// remain, whichever comes first. Processes still runnable when t is
// reached remain parked; a subsequent Run/RunFor continues them.
func (k *Kernel) RunFor(t Time) error {
	if k.dom != nil {
		return k.dom.g.RunFor(t)
	}
	return k.run(t)
}

// run drives the simulation with the given horizon: it resumes the
// process of the earliest event until nothing may run, then decides
// between termination, horizon stop and deadlock. A run that terminates
// releases the kernel's idle carriers to the process-wide idle list.
func (k *Kernel) run(horizon Time) error {
	k.horizon = horizon
	for {
		switch {
		case k.live <= k.daemons:
			k.release()
			return nil // only daemons (or nothing) left
		case k.queue.len() == 0:
			k.release()
			return &DeadlockError{Blocked: k.blockedProcNames()}
		case k.queue.e[0].at > horizon:
			k.now = horizon
			return nil
		}
		k.dispatch()
	}
}
