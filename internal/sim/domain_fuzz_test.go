package sim

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// fuzzTrace runs one fuzz scenario — domain count, lookahead and an op
// script all decoded from data — with the given worker count, on
// classic fixed windows when fixed is set, and returns the per-domain
// execution traces. It fails the test on deadlock or on a non-monotone
// timestamp within a domain.
func fuzzTrace(t *testing.T, data []byte, workers int, fixed bool) map[int][]string {
	t.Helper()
	if len(data) < 4 {
		return nil
	}
	nd := 2 + int(data[0])%7                                          // 2..8 domains
	lookahead := time.Duration(1+int(data[1])%200) * time.Microsecond // 1..200µs
	script := data[2:]
	if len(script) > 512 {
		script = script[:512]
	}

	k := New(int64(data[2]) + 1)
	g := AddDomains(k, nd-1, lookahead)
	g.Workers = workers
	g.fixed = fixed

	traces := make(map[int][]string)
	lastAt := make(map[int]Time)
	var mu sync.Mutex
	record := func(q *Proc, tag string) {
		d := q.Kernel().DomainID()
		mu.Lock()
		if q.Now() < lastAt[d] {
			mu.Unlock()
			t.Fatalf("domain %d executed %s at %v after reaching %v", d, tag, q.Now(), lastAt[d])
		}
		lastAt[d] = q.Now()
		traces[d] = append(traces[d], fmt.Sprintf("%s@%v", tag, q.Now()))
		mu.Unlock()
	}

	// One driver per domain walks an interleaved slice of the script:
	// every op either sleeps locally or posts a (possibly chaining)
	// message to a derived destination with a lookahead-respecting delay.
	var chain func(q *Proc, b byte, depth int)
	chain = func(q *Proc, b byte, depth int) {
		record(q, fmt.Sprintf("m%d/%d", b, depth))
		if depth <= 0 {
			return
		}
		dst := g.Kernel((int(b) + depth) % nd)
		delay := lookahead + time.Duration(int(b)%97)*time.Microsecond
		Post(q, dst, delay, "chain", func(r *Proc) { chain(r, b+1, depth-1) })
	}
	for i := 0; i < nd; i++ {
		i := i
		g.Kernel(i).Spawn(fmt.Sprintf("driver-%d", i), func(p *Proc) {
			for pos := i; pos < len(script); pos += nd {
				b := script[pos]
				switch b % 3 {
				case 0:
					p.Sleep(time.Duration(b%50) * time.Microsecond)
				case 1:
					dst := g.Kernel(int(b/3) % nd)
					delay := lookahead + time.Duration(int(b)%83)*time.Microsecond
					bb := b
					Post(p, dst, delay, "op", func(q *Proc) { record(q, fmt.Sprintf("p%d", bb)) })
				default:
					bb := b
					chain(p, bb, int(bb)%3)
				}
			}
		})
	}
	if err := g.Run(); err != nil {
		t.Fatalf("workers=%d: lookahead scheduler deadlocked: %v", workers, err)
	}
	return traces
}

// FuzzLookahead drives the window protocol with random domain
// topologies, lookaheads and event storms. Whatever the input, the
// scheduler must terminate (no deadlock), never execute events out of
// timestamp order within a domain (checked in record, plus the built-in
// causality panics), and produce per-domain traces that are identical
// on one worker thread and on a full pool, and identical between
// adaptive windows and the classic fixed-window reference schedule.
func FuzzLookahead(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3})
	f.Add([]byte{3, 50, 200, 100, 50, 25, 12, 6, 3, 1})
	f.Add([]byte{7, 199, 255, 254, 253, 0, 1, 2, 127, 128, 64, 32})
	f.Add([]byte{1, 10, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		a := fuzzTrace(t, data, 1, false)
		for _, c := range []struct {
			name    string
			workers int
			fixed   bool
		}{
			{"4 workers", 4, false},
			{"fixed windows", 1, true},
		} {
			b := fuzzTrace(t, data, c.workers, c.fixed)
			if len(a) != len(b) {
				t.Fatalf("%s: trace domain counts differ: %d vs %d", c.name, len(a), len(b))
			}
			for d, as := range a {
				if fmt.Sprint(as) != fmt.Sprint(b[d]) {
					t.Errorf("domain %d trace differs with %s:\n%v\n%v", d, c.name, as, b[d])
				}
			}
		}
	})
}
