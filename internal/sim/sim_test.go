package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestSleepOrdering(t *testing.T) {
	k := New(1)
	var order []string
	k.Spawn("a", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		order = append(order, "a")
	})
	k.Spawn("b", func(p *Proc) {
		p.Sleep(1 * time.Millisecond)
		order = append(order, "b")
	})
	k.Spawn("c", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		order = append(order, "c")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"b", "c", "a"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if k.Now() != 3*time.Millisecond {
		t.Fatalf("Now = %v, want 3ms", k.Now())
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	k := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Spawn("p", func(p *Proc) {
			p.Sleep(time.Millisecond)
			order = append(order, i)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestJoin(t *testing.T) {
	k := New(1)
	var childDone, sawChild bool
	child := k.Spawn("child", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		childDone = true
	})
	k.Spawn("parent", func(p *Proc) {
		p.Join(child)
		sawChild = childDone
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !sawChild {
		t.Fatal("parent resumed before child finished")
	}
}

func TestJoinFinished(t *testing.T) {
	k := New(1)
	child := k.Spawn("child", func(p *Proc) {})
	k.Spawn("parent", func(p *Proc) {
		p.Sleep(time.Millisecond)
		p.Join(child) // already done; must not block
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	k := New(1)
	m := NewMutex(k, "m")
	inside := 0
	maxInside := 0
	for i := 0; i < 5; i++ {
		k.Spawn("p", func(p *Proc) {
			for j := 0; j < 10; j++ {
				m.Lock(p)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				p.Sleep(time.Millisecond)
				inside--
				m.Unlock()
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Fatalf("maxInside = %d, want 1", maxInside)
	}
	// 5 procs * 10 critical sections * 1ms, fully serialized.
	if k.Now() != 50*time.Millisecond {
		t.Fatalf("Now = %v, want 50ms", k.Now())
	}
}

func TestSemaphoreCounting(t *testing.T) {
	k := New(1)
	s := NewSemaphore(k, "s", 3)
	inside, maxInside := 0, 0
	for i := 0; i < 9; i++ {
		k.Spawn("p", func(p *Proc) {
			s.Acquire(p, 1)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Sleep(time.Millisecond)
			inside--
			s.Release(1)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInside != 3 {
		t.Fatalf("maxInside = %d, want 3", maxInside)
	}
	if k.Now() != 3*time.Millisecond {
		t.Fatalf("Now = %v, want 3ms (9 procs / 3 slots)", k.Now())
	}
}

func TestSemaphoreMultiUnit(t *testing.T) {
	k := New(1)
	s := NewSemaphore(k, "bytes", 100)
	got := []int64{}
	k.Spawn("big", func(p *Proc) {
		p.Sleep(time.Millisecond)
		s.Acquire(p, 80) // must wait for initial holder
		got = append(got, 80)
		s.Release(80)
	})
	k.Spawn("holder", func(p *Proc) {
		s.Acquire(p, 50)
		p.Sleep(5 * time.Millisecond)
		s.Release(50)
	})
	k.Spawn("small", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		// Arrives after big; must not barge past it even though 30 <= 50.
		s.Acquire(p, 30)
		got = append(got, 30)
		s.Release(30)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 80 || got[1] != 30 {
		t.Fatalf("service order = %v, want [80 30] (no barging)", got)
	}
}

func TestBarrierRounds(t *testing.T) {
	k := New(1)
	b := NewBarrier(k, "b", 4)
	phase := make([]int, 4)
	for i := 0; i < 4; i++ {
		i := i
		k.Spawn("p", func(p *Proc) {
			for r := 0; r < 3; r++ {
				p.Sleep(time.Duration(i+1) * time.Millisecond)
				phase[i]++
				b.Wait(p)
				// After the barrier, all must have completed this round.
				for j := range phase {
					if phase[j] != r+1 {
						t.Errorf("round %d: phase[%d]=%d", r, j, phase[j])
					}
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPriorityQueueing(t *testing.T) {
	k := New(1)
	r := NewResource(k, "cpu", 1)
	var order []string
	k.Spawn("holder", func(p *Proc) { r.Use(p, 10*time.Millisecond) })
	k.Spawn("low", func(p *Proc) {
		p.Sleep(time.Millisecond)
		r.UsePri(p, time.Millisecond, 5)
		order = append(order, "low")
	})
	k.Spawn("high", func(p *Proc) {
		p.Sleep(2 * time.Millisecond) // arrives after low
		r.UsePri(p, time.Millisecond, 1)
		order = append(order, "high")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if order[0] != "high" {
		t.Fatalf("order = %v, want high first", order)
	}
}

func TestQueuePutGet(t *testing.T) {
	k := New(1)
	q := NewQueue(k, "q")
	var got []int
	k.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, q.Get(p).(int))
		}
	})
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(time.Millisecond)
			q.Put(i)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got = %v", got)
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := New(1)
	m := NewMutex(k, "m")
	k.Spawn("selfdead", func(p *Proc) {
		m.Lock(p)
		m.Lock(p) // deadlock
	})
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 {
		t.Fatalf("blocked = %v", de.Blocked)
	}
}

// TestDeadlockNamesPrimitive checks that a deadlock report names what
// each proc waits on, although blocking builds no reason string: the
// semaphore's reason is fixed at construction and a Join is resolved to
// the joined proc when the report is made.
func TestDeadlockNamesPrimitive(t *testing.T) {
	k := New(1)
	sem := NewSemaphore(k, "stuck", 0)
	k.Spawn("parent", func(p *Proc) {
		p.Join(p.Spawn("child", func(q *Proc) { sem.Acquire(q, 1) }))
	})
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	msg := de.Error()
	for _, want := range []string{"parent (join:child)", "child (sem:stuck)"} {
		if !strings.Contains(msg, want) {
			t.Errorf("deadlock report %q does not contain %q", msg, want)
		}
	}
}

// TestDeadlockNamesFanChild checks that a parent blocked in Fan.Wait is
// reported as joining the child it awaits, as a Join would be.
func TestDeadlockNamesFanChild(t *testing.T) {
	k := New(1)
	sem := NewSemaphore(k, "stuck", 0)
	k.Spawn("parent", func(p *Proc) {
		f := p.Fan()
		f.Go("quick", HandlerFunc(func(q *Proc) { q.Sleep(time.Microsecond) }))
		f.Go("revoke", HandlerFunc(func(q *Proc) { sem.Acquire(q, 1) }))
		f.Wait()
	})
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	msg := de.Error()
	for _, want := range []string{"parent (join:revoke)", "revoke (sem:stuck)"} {
		if !strings.Contains(msg, want) {
			t.Errorf("deadlock report %q does not contain %q", msg, want)
		}
	}
}

// fanTrace runs parents that each fan out children of random widths and
// sleeps, next to bystanders whose sleeps tie with them, and returns
// every wake-up as (proc, id, time) plus the events dispatched. With
// fan false the parents use a Spawn + Join loop instead of a Fan.
func fanTrace(seed int64, fan bool) string {
	k := New(seed)
	var b strings.Builder
	note := func(p *Proc) { fmt.Fprintf(&b, "%s#%d@%v ", p.Name(), p.ID(), p.Now()) }
	for i := 0; i < 3; i++ {
		k.Spawn(fmt.Sprintf("parent%d", i), func(p *Proc) {
			rng := p.Kernel().Rand()
			for round := 0; round < 6; round++ {
				n := rng.Intn(6)
				ds := make([]Time, n)
				for j := range ds {
					ds[j] = Time(rng.Intn(4)) * time.Microsecond
				}
				if fan {
					f := p.Fan()
					for _, d := range ds {
						f.Go("kid", HandlerFunc(func(q *Proc) { q.Sleep(d); note(q) }))
					}
					f.Wait()
				} else {
					var qs []*Proc
					for _, d := range ds {
						qs = append(qs, p.Spawn("kid", func(q *Proc) { q.Sleep(d); note(q) }))
					}
					for _, q := range qs {
						p.Join(q)
					}
				}
				note(p)
			}
		})
		k.Spawn(fmt.Sprintf("bystander%d", i), func(p *Proc) {
			for j := 0; j < 10; j++ {
				p.Sleep(time.Microsecond)
				note(p)
			}
		})
	}
	if err := k.Run(); err != nil {
		panic(err)
	}
	fmt.Fprintf(&b, "dispatched=%d", k.Dispatched())
	return b.String()
}

// TestFanMatchesSpawnJoin pins that a Fan schedules exactly what the
// Spawn + Join loop it replaces does: the same proc IDs, the same wake-up
// order and times, and the same number of events.
func TestFanMatchesSpawnJoin(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		if got, want := fanTrace(seed, true), fanTrace(seed, false); got != want {
			t.Fatalf("seed %d: fan schedule\n%s\nSpawn + Join schedule\n%s", seed, got, want)
		}
	}
}

func TestRunFor(t *testing.T) {
	k := New(1)
	ticks := 0
	k.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(time.Second)
			ticks++
		}
	})
	if err := k.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10", ticks)
	}
	if k.Now() != 10*time.Second {
		t.Fatalf("Now = %v", k.Now())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks != 100 {
		t.Fatalf("ticks = %d, want 100", ticks)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		k := New(42)
		var log []int64
		r := NewResource(k, "disk", 2)
		for i := 0; i < 20; i++ {
			k.Spawn("w", func(p *Proc) {
				for j := 0; j < 5; j++ {
					d := time.Duration(k.Rand().Intn(1000)) * time.Microsecond
					r.Use(p, d)
					log = append(log, int64(p.Now()))
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestSpawnFromProc(t *testing.T) {
	k := New(1)
	total := 0
	k.Spawn("root", func(p *Proc) {
		var kids []*Proc
		for i := 0; i < 3; i++ {
			kids = append(kids, p.Spawn("kid", func(q *Proc) {
				q.Sleep(time.Millisecond)
				total++
			}))
		}
		for _, kid := range kids {
			p.Join(kid)
		}
		total *= 10
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if total != 30 {
		t.Fatalf("total = %d, want 30", total)
	}
}

func BenchmarkKernelEvents(b *testing.B) {
	k := New(1)
	k.Spawn("spinner", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N), "events")
}

// BenchmarkKernelSwitch measures a real coroutine switch per event: two
// procs sleep in lockstep, so every wake-up goes through the heap and the
// kernel loop (BenchmarkKernelEvents only exercises the Sleep fast path,
// where no switch happens).
func BenchmarkKernelSwitch(b *testing.B) {
	k := New(1)
	for _, n := range []int{b.N / 2, b.N - b.N/2} {
		k.Spawn("stepper", func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(time.Microsecond)
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(k.Dispatched()-2)/float64(b.N), "events/op")
}

// BenchmarkKernelSpawn measures a Spawn + Join from a running proc; run
// it with -benchmem for the allocation cost.
func BenchmarkKernelSpawn(b *testing.B) {
	k := New(1)
	k.Spawn("parent", func(p *Proc) {
		child := func(q *Proc) {}
		for i := 0; i < b.N; i++ {
			p.Join(p.Spawn("child", child))
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
