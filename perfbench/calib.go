package main

import (
	"strconv"
	"time"
)

// The hosts this benchmark runs on are shared, and their speed drifts
// by tens of percent over minutes as other tenants contend for caches
// and memory bandwidth; the medians of two runs minutes apart differ
// by more than any change worth measuring. So the host-time metrics
// are scaled to a nominal host speed: a fixed reference loop runs
// before every repetition, and the run's median loop time over
// refNominal is the host's current slowness.
//
// The loop does what the simulator spends its time on: string-keyed
// map inserts and lookups over a working set of a few megabytes, small
// allocations, and goroutine hand-offs. It lives in the benchmark, so
// no change to the simulator moves it.
const refNominal = 10 * time.Millisecond

type refLoop struct {
	keys []string
	sink int
}

func newRefLoop() *refLoop {
	l := &refLoop{keys: make([]string, 40000)}
	for i := range l.keys {
		l.keys[i] = "/bench/MakeFiles-n8-p32/p0" + strconv.Itoa(i%32) + "/s0/" + strconv.Itoa(i)
	}
	return l
}

// run times one pass of the loop.
func (l *refLoop) run() time.Duration {
	start := time.Now()
	m := make(map[string]*[4]int64)
	for i, k := range l.keys {
		m[k] = &[4]int64{int64(i)}
	}
	for i, k := range l.keys {
		m[k][1] += int64(i)
	}
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	s := 0
	for i := 0; i < 5000; i++ {
		ping <- i
		s += <-pong
	}
	close(ping)
	<-pong // the echo goroutine has exited
	l.sink = s + len(m)
	return time.Since(start)
}
