package service

import (
	"testing"
	"time"

	"dmetabench/internal/sim"
)

func TestNewClampsAndPlacesRoundRobin(t *testing.T) {
	k := sim.New(1)
	rt := New(k, 3, 10, time.Millisecond)
	g := rt.Group()
	if g == nil || !rt.Domained() {
		t.Fatal("Domains=10 over 3 servers: want a domain group")
	}
	if n := g.NumDomains(); n != 4 {
		t.Fatalf("domains = %d, want 4 (clamped to servers+1)", n)
	}
	if rt.Client() != k || g.Kernel(0) != k {
		t.Fatal("clients must stay on the base kernel, domain 0")
	}
	for i := 0; i < 3; i++ {
		if rt.KernelFor(i) != g.Kernel(1+i) {
			t.Errorf("server %d not on domain %d", i, 1+i)
		}
	}

	rt = New(sim.New(1), 5, 3, time.Millisecond)
	for i, want := range []int{1, 2, 1, 2, 1} {
		if rt.KernelFor(i) != rt.Group().Kernel(want) {
			t.Errorf("server %d not on domain %d (round-robin over 1..2)", i, want)
		}
	}
}

func TestNewUndomained(t *testing.T) {
	for _, domains := range []int{0, 1} {
		k := sim.New(1)
		rt := New(k, 4, domains, time.Millisecond)
		if rt.Domained() || rt.Group() != nil {
			t.Fatalf("Domains=%d: want no domain group", domains)
		}
		for i := 0; i < 4; i++ {
			if rt.KernelFor(i) != k {
				t.Fatalf("Domains=%d: server %d off the base kernel", domains, i)
			}
		}
	}
	// A kernel already owned by a group embeds without a nested group.
	outer := New(sim.New(1), 2, 3, time.Millisecond)
	inner := New(outer.KernelFor(0), 2, 3, time.Millisecond)
	if inner.Domained() || inner.KernelFor(1) != outer.KernelFor(0) {
		t.Fatal("a runtime on a grouped kernel must stay undomained")
	}
}

func TestAtSync(t *testing.T) {
	k := sim.New(1)
	rt := New(k, 1, 0, time.Millisecond)
	ran := false
	k.Spawn("p", func(p *sim.Proc) {
		p.Sleep(time.Second)
		rt.AtSync(p, func() { ran = true })
		if !ran {
			t.Error("undomained AtSync did not run inline")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	k = sim.New(1)
	rt = New(k, 1, 2, time.Millisecond)
	var at time.Duration = -1
	k.Spawn("p", func(p *sim.Proc) {
		p.Sleep(time.Second)
		rt.AtSync(p, func() { at = k.Now() })
		if at >= 0 {
			t.Error("domained AtSync ran inline")
		}
		p.Sleep(10 * time.Millisecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := time.Second + time.Millisecond; at != want {
		t.Fatalf("domained AtSync ran at %v, want %v (one lookahead ahead)", at, want)
	}
}

// TestAfterChains checks a transition chained with After from inside an
// AtSync function: each step lands d after the previous one on both
// kernels, and SyncDelay is exactly the gap between the AtSync call and
// its first step.
func TestAfterChains(t *testing.T) {
	for _, domains := range []int{0, 2} {
		k := sim.New(1)
		rt := New(k, 1, domains, time.Millisecond)
		var start, first, second time.Duration
		k.Spawn("p", func(p *sim.Proc) {
			p.Sleep(time.Second)
			start = p.Now()
			rt.AtSync(p, func() {
				first = k.Now()
				rt.After("step", 5*time.Millisecond, func() {
					second = k.Now()
				})
			})
			p.Sleep(10 * time.Millisecond)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if got := first - start; got != rt.SyncDelay() {
			t.Errorf("Domains=%d: AtSync ran %v after the call, SyncDelay = %v", domains, got, rt.SyncDelay())
		}
		if got := second - first; got != 5*time.Millisecond {
			t.Errorf("Domains=%d: After step ran %v after its AtSync step, want 5ms", domains, got)
		}
	}
}

func TestPriceTable(t *testing.T) {
	d := Demand{Getattr: 3, Lookup: 2, Readdir: 1, Create: 4}
	if got := d.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	pt := PriceTable{Getattr: time.Microsecond, Lookup: 10 * time.Microsecond,
		Readdir: 100 * time.Microsecond, Create: time.Millisecond}
	if got, want := pt.Price(d), 4123*time.Microsecond; got != want {
		t.Fatalf("Price = %v, want %v", got, want)
	}
	if got := pt.Price(Demand{}); got != 0 {
		t.Fatalf("empty batch priced %v", got)
	}
}

// aggregateRun injects two getattrs per one-second tick into a single
// one-thread server priced at perOp each, for 5.5 s of virtual time.
func aggregateRun(t *testing.T, perOp time.Duration) (ops, shed, busy int64) {
	t.Helper()
	k := sim.New(1)
	pool := sim.NewResource(k, "pool", 1)
	var draws []int
	AttachAggregate(AggregateConfig{
		Servers: 1,
		Lanes:   1,
		Tick:    time.Second,
		Kernel:  func(int) *sim.Kernel { return k },
		Pool:    func(int) *sim.Resource { return pool },
		Source: func(server, lane, tick int) Demand {
			draws = append(draws, tick)
			return Demand{Getattr: 2}
		},
		Price: func(_ int, d Demand) time.Duration { return PriceTable{Getattr: perOp}.Price(d) },
		Ops:   &ops,
		Shed:  &shed,
		Busy:  &busy,
	})
	k.Spawn("clock", func(p *sim.Proc) { p.Sleep(5500 * time.Millisecond) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, tick := range draws {
		if tick != i {
			t.Fatalf("draws %v: want every tick once, in order", draws)
		}
	}
	return ops, shed, busy
}

func TestAttachAggregateCounters(t *testing.T) {
	// Underloaded: every tick 0..5 is served, none shed.
	ops, shed, busy := aggregateRun(t, 100*time.Millisecond)
	if ops != 12 || shed != 0 || busy != int64(6*200*time.Millisecond) {
		t.Fatalf("underloaded: ops %d shed %d busy %v; want 12, 0, 1.2s", ops, shed, time.Duration(busy))
	}
	// Overloaded: each batch holds the thread 2.5 s, so the lane serves
	// ticks 0, 2 and 5 and sheds the ticks it slept through (1, 3, 4).
	ops, shed, busy = aggregateRun(t, 1250*time.Millisecond)
	if ops != 6 || shed != 6 || busy != int64(3*2500*time.Millisecond) {
		t.Fatalf("overloaded: ops %d shed %d busy %v; want 6, 6, 7.5s", ops, shed, time.Duration(busy))
	}
}
