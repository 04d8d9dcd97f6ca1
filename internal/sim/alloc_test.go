package sim

import (
	"math"
	"testing"
	"time"
)

// TestScheduleAllocFree pins the zero-alloc property of the event queue:
// once the heap's backing array has grown, scheduling and dispatching
// events must not allocate (the container/heap implementation it
// replaced boxed one interface{} per push and per pop).
func TestScheduleAllocFree(t *testing.T) {
	k := New(1)
	p := &Proc{k: k, name: "probe"}
	// Warm the heap storage well past the test's working set.
	for i := 0; i < 64; i++ {
		k.schedule(p, Time(i))
	}
	for k.queue.len() > 0 {
		k.queue.pop()
	}
	if avg := testing.AllocsPerRun(1000, func() {
		k.schedule(p, k.now+time.Microsecond)
		k.schedule(p, k.now+2*time.Microsecond)
		k.schedule(p, k.now)
		k.queue.pop()
		k.queue.pop()
		k.queue.pop()
	}); avg != 0 {
		t.Fatalf("schedule/pop allocated %.2f objects per cycle, want 0", avg)
	}
}

// TestSleepFastPathAllocFree runs a long chain of uncontended Sleeps —
// the dominant pattern of every simulated RPC — and requires the whole
// run to stay allocation-free apart from fixed per-run setup.
func TestSleepFastPathAllocFree(t *testing.T) {
	k := New(1)
	var avg float64
	k.Spawn("sleeper", func(p *Proc) {
		avg = testing.AllocsPerRun(1000, func() {
			p.Sleep(time.Microsecond)
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Fatalf("Sleep allocated %.2f objects/op on the fast path, want 0", avg)
	}
}

// TestSleepOverflowClamps pins the schedule() clamp on the Sleep fast
// path: a wake-up time that overflows virtual time must behave like an
// immediate wake-up (as the slow path's schedule clamp guarantees), not
// move the clock backwards.
func TestSleepOverflowClamps(t *testing.T) {
	k := New(1)
	var at Time = -1
	k.Spawn("a", func(p *Proc) {
		p.Sleep(time.Millisecond)
		p.Spawn("forever", func(q *Proc) {
			q.Sleep(Time(math.MaxInt64)) // now + d overflows int64
			at = q.Now()
		})
		p.Sleep(time.Millisecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != time.Millisecond {
		t.Fatalf("overflowing Sleep woke at %v, want immediate wake at 1ms", at)
	}
	if k.Now() != 2*time.Millisecond {
		t.Fatalf("final clock %v, want 2ms", k.Now())
	}
}

// TestSleepFastPathSemantics checks that the in-place clock advance is
// observationally identical to a scheduled wake-up: time moves, ties go
// to the earlier-scheduled process, and RunFor's horizon is respected.
func TestSleepFastPathSemantics(t *testing.T) {
	k := New(1)
	var order []string
	k.Spawn("a", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		order = append(order, "a@"+p.Now().String())
	})
	k.Spawn("b", func(p *Proc) {
		p.Sleep(2 * time.Millisecond) // same instant: a spawned first, runs first
		order = append(order, "b@"+p.Now().String())
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "a@2ms" || order[1] != "b@2ms" {
		t.Fatalf("order = %v", order)
	}

	k2 := New(1)
	var reached Time = -1
	k2.Spawn("long", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		reached = p.Now()
	})
	if err := k2.RunFor(3 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if reached != -1 {
		t.Fatal("proc ran past the RunFor horizon")
	}
	if k2.Now() != 3*time.Millisecond {
		t.Fatalf("Now = %v after RunFor(3ms)", k2.Now())
	}
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
	if reached != 10*time.Millisecond {
		t.Fatalf("proc finished at %v, want 10ms", reached)
	}
}

// TestSpawnAllocs pins the steady-state cost of a Spawn + Join: the Proc
// itself and the Join waiter slice. The carrier running the child comes
// from the kernel's free list, and the Join blocking reason is a constant.
func TestSpawnAllocs(t *testing.T) {
	k := New(1)
	var avg float64
	k.Spawn("parent", func(p *Proc) {
		child := func(q *Proc) {}
		avg = testing.AllocsPerRun(1000, func() {
			p.Join(p.Spawn("child", child))
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if avg > 2 {
		t.Fatalf("Spawn + Join allocated %.2f objects/op, want <= 2", avg)
	}
}

// sleeper is a fan-out child that sleeps for its own duration.
type sleeper Time

func (d *sleeper) Handle(q *Proc) { q.Sleep(Time(*d)) }

// TestFanAllocFree pins that an 8-child fan-out plus Wait allocates
// nothing once the kernel's carriers and fan records are warm: the
// children run on carrier-embedded procs and the record is reused.
func TestFanAllocFree(t *testing.T) {
	k := New(1)
	var kids [8]sleeper
	for i := range kids {
		kids[i] = sleeper(Time(1+i%3) * time.Microsecond)
	}
	var avg float64
	k.Spawn("parent", func(p *Proc) {
		avg = testing.AllocsPerRun(1000, func() {
			f := p.Fan()
			for i := range kids {
				f.Go("kid", &kids[i])
			}
			f.Wait()
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Fatalf("an 8-child fan-out allocated %.2f objects/op, want 0", avg)
	}
}

// TestContendedSemaphoreAllocFree pins that blocking on a semaphore and
// being handed it by Release allocates nothing: the blocking reason is
// built when the semaphore is, and the wait queue's storage is reused.
func TestContendedSemaphoreAllocFree(t *testing.T) {
	k := New(1)
	s := NewSemaphore(k, "s", 1)
	var avg float64
	done := false
	k.Spawn("holder", func(p *Proc) {
		s.Acquire(p, 1)
		for !done {
			p.Sleep(time.Microsecond)
			s.Release(1) // hands the unit to the blocked waiter
			s.Acquire(p, 1)
		}
	})
	k.Spawn("waiter", func(p *Proc) {
		avg = testing.AllocsPerRun(1000, func() {
			s.Acquire(p, 1) // blocks: the holder has the unit
			p.Sleep(time.Microsecond)
			s.Release(1)
		})
		done = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Fatalf("a contended Acquire/Release allocated %.2f objects/op, want 0", avg)
	}
}

// noop is a message body that captures nothing, so posting it allocates
// no closure.
func noop(q *Proc) {}

// TestPostDeliveryAllocs pins that delivering and running a cross-domain
// Post allocates nothing in steady state: the message runs on the Proc
// embedded in a pooled carrier.
func TestPostDeliveryAllocs(t *testing.T) {
	const lookahead = 10 * time.Microsecond
	k := New(1)
	g := AddDomains(k, 1, lookahead)
	g.Workers = 1
	var avg float64
	k.Spawn("sender", func(p *Proc) {
		avg = testing.AllocsPerRun(1000, func() {
			Post(p, g.Kernel(1), lookahead, "msg", noop)
			p.Sleep(2 * lookahead) // spans the windows that deliver and run it
		})
	})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Fatalf("a delivered Post allocated %.2f objects/op, want 0", avg)
	}
	if d := g.Kernel(1).Dispatched(); d != 1001 {
		t.Fatalf("domain 1 ran %d messages, want 1001", d)
	}
}
