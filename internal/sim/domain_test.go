package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// traceRun executes a small cross-domain workload on nd+1 domains with
// the given worker count and returns a trace of every message execution.
func traceRun(t *testing.T, workers int) []string {
	t.Helper()
	k := New(42)
	g := AddDomains(k, 3, 50*time.Microsecond)
	g.Workers = workers

	var trace []string
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	record := func(s string) {
		<-mu
		trace = append(trace, s)
		mu <- struct{}{}
	}

	// Each domain runs a proc that posts to the next domain in a ring,
	// with varying delays, plus local sleeps, for a few rounds.
	for i := 0; i < g.NumDomains(); i++ {
		i := i
		ki := g.Kernel(i)
		ki.Spawn(fmt.Sprintf("driver-%d", i), func(p *Proc) {
			for round := 0; round < 5; round++ {
				p.Sleep(time.Duration(10*(i+1)) * time.Microsecond)
				dst := g.Kernel((i + 1) % g.NumDomains())
				delay := 50*time.Microsecond + time.Duration(i*7)*time.Microsecond
				Post(p, dst, delay, "ring", func(q *Proc) {
					record(fmt.Sprintf("d%d t%v", q.Kernel().DomainID(), q.Now()))
				})
			}
		})
	}
	if err := g.Run(); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return trace
}

// TestDomainWorkerInvariance is the core determinism property of the
// window protocol: the same decomposition produces identical execution
// whether domains run on one worker thread or one thread per domain.
func TestDomainWorkerInvariance(t *testing.T) {
	// Messages to ONE domain execute in deterministic order; the global
	// interleaving across domains is inherently concurrent, so compare
	// per-domain projections of the trace.
	project := func(trace []string) map[string][]string {
		m := map[string][]string{}
		for _, s := range trace {
			d := strings.Fields(s)[0]
			m[d] = append(m[d], s)
		}
		return m
	}
	a := project(traceRun(t, 1))
	b := project(traceRun(t, 4))
	if len(a) != len(b) {
		t.Fatalf("domain counts differ: %d vs %d", len(a), len(b))
	}
	for d, as := range a {
		bs := b[d]
		if fmt.Sprint(as) != fmt.Sprint(bs) {
			t.Errorf("%s trace differs:\n 1 worker: %v\n 4 workers: %v", d, as, bs)
		}
	}
}

// TestDomainCallTiming checks the rendezvous primitive: a cross-domain
// Call charges exactly one-way delay, body time, one-way delay.
func TestDomainCallTiming(t *testing.T) {
	k := New(1)
	g := AddDomains(k, 1, 100*time.Microsecond)
	var elapsed, bodyAt time.Duration
	k.Spawn("caller", func(p *Proc) {
		start := p.Now()
		p.Sleep(time.Millisecond)
		callStart := p.Now()
		Call(p, g.Kernel(1), 150*time.Microsecond, "rpc", HandlerFunc(func(q *Proc) {
			bodyAt = q.Now()
			q.Sleep(300 * time.Microsecond)
		}))
		elapsed = p.Now() - callStart
		_ = start
	})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if want := time.Millisecond + 150*time.Microsecond; bodyAt != want {
		t.Errorf("body ran at %v, want %v", bodyAt, want)
	}
	if want := 2*150*time.Microsecond + 300*time.Microsecond; elapsed != want {
		t.Errorf("call took %v, want %v", elapsed, want)
	}
}

// TestDomainSyncPoint checks that AtSync functions run at exactly the
// registered virtual time with every domain's clock at that instant.
func TestDomainSyncPoint(t *testing.T) {
	k := New(7)
	g := AddDomains(k, 2, 20*time.Microsecond)
	var at0, at1, at2 time.Duration
	fired := false
	k.Spawn("main", func(p *Proc) {
		p.Sleep(500 * time.Microsecond)
		g.AtSync(p, p.Now()+100*time.Microsecond, func() {
			fired = true
			at0 = g.Kernel(0).Now()
			at1 = g.Kernel(1).Now()
			at2 = g.Kernel(2).Now()
		})
		p.Sleep(time.Millisecond)
	})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("sync point never fired")
	}
	want := 600 * time.Microsecond
	if at0 != want || at1 != want || at2 != want {
		t.Errorf("sync clocks %v/%v/%v, want all %v", at0, at1, at2, want)
	}
}

// TestDomainCausalityChecker checks that a send violating the lookahead
// bound panics with a diagnostic.
func TestDomainCausalityChecker(t *testing.T) {
	k := New(3)
	g := AddDomains(k, 1, 100*time.Microsecond)
	k.Spawn("violator", func(p *Proc) {
		defer func() {
			r := recover()
			if r == nil {
				t.Error("under-lookahead Post did not panic")
			} else if !strings.Contains(fmt.Sprint(r), "causality violation") {
				t.Errorf("unexpected panic: %v", r)
			}
		}()
		Post(p, g.Kernel(1), 10*time.Microsecond, "bad", func(q *Proc) {})
	})
	_ = g.Run()
}

// TestDomainDeadlock checks the group-level deadlock report: a proc
// blocked forever with no events and no in-flight messages anywhere.
func TestDomainDeadlock(t *testing.T) {
	k := New(5)
	g := AddDomains(k, 1, 50*time.Microsecond)
	sem := NewSemaphore(g.Kernel(1), "stuck", 0)
	g.Kernel(1).Spawn("waiter", func(p *Proc) {
		sem.Acquire(p, 1)
	})
	err := g.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if !strings.Contains(de.Error(), "waiter") {
		t.Errorf("deadlock report %q does not name the blocked proc", de.Error())
	}
}

// TestDomainRunFor checks horizon semantics across the group: the run
// stops with every clock at the horizon and resumes cleanly.
func TestDomainRunFor(t *testing.T) {
	k := New(9)
	g := AddDomains(k, 1, 50*time.Microsecond)
	var ticks int
	k.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(time.Millisecond)
			ticks++
		}
	})
	if err := g.RunFor(3500 * time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if ticks != 3 {
		t.Errorf("ticks at horizon = %d, want 3", ticks)
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks != 10 {
		t.Errorf("final ticks = %d, want 10", ticks)
	}
}

// TestAdaptiveWindowsSparse checks what the adaptive window rule buys on
// a sparse two-domain topology: a client sleeping well inside the
// lookahead against a daemon ticking once per millisecond. The client
// is the lone minimum almost every window, so its window stretches to
// the daemon's next tick instead of ending one lookahead out. The
// schedule must not change — only the window count.
func TestAdaptiveWindowsSparse(t *testing.T) {
	run := func(fixed bool) (windows int64, trace []Time) {
		k := New(11)
		g := AddDomains(k, 1, 25*time.Microsecond)
		g.fixed = fixed
		g.Kernel(1).SpawnDaemon("tick", func(p *Proc) {
			for {
				p.Sleep(time.Millisecond)
			}
		})
		k.Spawn("client", func(p *Proc) {
			for i := 0; i < 1000; i++ {
				p.Sleep(25 * time.Microsecond)
				trace = append(trace, p.Now())
			}
		})
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
		return g.Windows(), trace
	}
	adaptive, at := run(false)
	fixed, ft := run(true)
	if fmt.Sprint(at) != fmt.Sprint(ft) {
		t.Fatal("adaptive and fixed windows produced different schedules")
	}
	if adaptive*10 > fixed {
		t.Errorf("adaptive windows = %d, fixed = %d: want at least 10x fewer", adaptive, fixed)
	}
	t.Logf("windows: adaptive %d, fixed %d", adaptive, fixed)
}
