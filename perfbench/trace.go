package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dmetabench/internal/cluster"
	"dmetabench/internal/core"
	"dmetabench/internal/fs"
	"dmetabench/internal/sim"
)

// span is one fs.Client call in virtual time. Its parent is the
// measurement span open when the call started: the one opened by the
// latest BenchStartHook, or 0, the run itself, before the first.
type span struct {
	parent     int32
	client     int32
	kind       fs.OpKind
	err        fs.Errno
	start, end time.Duration
}

// measurementSpan covers one measurement from its doBench start to the
// start of the next measurement's doBench (or the end of the run), so
// it also holds that measurement's cleanup and the next one's prepare.
type measurementSpan struct {
	op    string
	start time.Duration
}

// recorder counts the fs.Client calls of a run and, when tracing,
// keeps one span per call. Only client-side processes touch
// it, and those all run on one kernel (domain 0 when domained), one at
// a time, so it needs no locking.
type recorder struct {
	ops          int64
	tracing      bool
	spans        []span
	measurements []measurementSpan
	clients      int32
}

func (r *recorder) openMeasurement(op string, at time.Duration) {
	if r.tracing {
		r.measurements = append(r.measurements, measurementSpan{op: op, start: at})
	}
}

// countedFS wraps a model so every client it binds reports to rec.
type countedFS struct {
	inner core.FileSystem
	rec   *recorder
}

func (f *countedFS) Name() string { return f.inner.Name() }

func (f *countedFS) NewClient(node *cluster.Node, p *sim.Proc) fs.Client {
	c := &countedClient{inner: f.inner.NewClient(node, p), rec: f.rec, p: p, id: f.rec.clients}
	f.rec.clients++
	return c
}

type countedClient struct {
	inner fs.Client
	rec   *recorder
	p     *sim.Proc
	id    int32 // bind order of this client within the run
}

func (c *countedClient) begin() time.Duration {
	if c.rec.tracing {
		return c.p.Now()
	}
	return 0
}

func (c *countedClient) end(kind fs.OpKind, start time.Duration, err error) {
	c.rec.ops++
	if c.rec.tracing {
		c.rec.spans = append(c.rec.spans, span{
			parent: int32(len(c.rec.measurements)),
			client: c.id,
			kind:   kind,
			err:    fs.CodeOf(err),
			start:  start,
			end:    c.p.Now(),
		})
	}
}

func (c *countedClient) Create(p string) error {
	t := c.begin()
	err := c.inner.Create(p)
	c.end(fs.OpCreate, t, err)
	return err
}

func (c *countedClient) Open(p string) (fs.Handle, error) {
	t := c.begin()
	h, err := c.inner.Open(p)
	c.end(fs.OpOpen, t, err)
	return h, err
}

func (c *countedClient) Close(h fs.Handle) error {
	t := c.begin()
	err := c.inner.Close(h)
	c.end(fs.OpClose, t, err)
	return err
}

func (c *countedClient) Write(h fs.Handle, n int64) error {
	t := c.begin()
	err := c.inner.Write(h, n)
	c.end(fs.OpWrite, t, err)
	return err
}

func (c *countedClient) Fsync(h fs.Handle) error {
	t := c.begin()
	err := c.inner.Fsync(h)
	c.end(fs.OpFsync, t, err)
	return err
}

func (c *countedClient) Mkdir(p string) error {
	t := c.begin()
	err := c.inner.Mkdir(p)
	c.end(fs.OpMkdir, t, err)
	return err
}

func (c *countedClient) Rmdir(p string) error {
	t := c.begin()
	err := c.inner.Rmdir(p)
	c.end(fs.OpRmdir, t, err)
	return err
}

func (c *countedClient) Unlink(p string) error {
	t := c.begin()
	err := c.inner.Unlink(p)
	c.end(fs.OpUnlink, t, err)
	return err
}

func (c *countedClient) Rename(o, n string) error {
	t := c.begin()
	err := c.inner.Rename(o, n)
	c.end(fs.OpRename, t, err)
	return err
}

func (c *countedClient) Link(o, n string) error {
	t := c.begin()
	err := c.inner.Link(o, n)
	c.end(fs.OpLink, t, err)
	return err
}

func (c *countedClient) Symlink(target, p string) error {
	t := c.begin()
	err := c.inner.Symlink(target, p)
	c.end(fs.OpSymlink, t, err)
	return err
}

func (c *countedClient) Stat(p string) (fs.Attr, error) {
	t := c.begin()
	a, err := c.inner.Stat(p)
	c.end(fs.OpStat, t, err)
	return a, err
}

func (c *countedClient) ReadDir(p string) ([]fs.DirEntry, error) {
	t := c.begin()
	ents, err := c.inner.ReadDir(p)
	c.end(fs.OpReadDir, t, err)
	return ents, err
}

func (c *countedClient) DropCaches() {
	t := c.begin()
	c.inner.DropCaches()
	c.end(fs.OpDropCaches, t, nil)
}

// latencyPercentiles returns the nearest-rank p50 and p99 of the
// virtual latency of every traced call of one kind, over all phases.
func (r *recorder) latencyPercentiles(kind fs.OpKind) (p50, p99 time.Duration) {
	var ds []time.Duration
	for _, s := range r.spans {
		if s.kind == kind {
			ds = append(ds, s.end-s.start)
		}
	}
	if len(ds) == 0 {
		return 0, 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	rank := func(p float64) time.Duration {
		i := int(p*float64(len(ds))+0.999999999) - 1
		if i < 0 {
			i = 0
		}
		return ds[i]
	}
	return rank(0.50), rank(0.99)
}

// writeSpans writes the run's spans as gzipped TSV: measurement spans
// first (parent 0), then one line per client call.
func (r *recorder) writeSpans(path string, runEnd time.Duration) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id\tparent\tname\tclient\tstart_ns\tend_ns\terr")
	for i, m := range r.measurements {
		end := runEnd
		if i+1 < len(r.measurements) {
			end = r.measurements[i+1].start
		}
		fmt.Fprintf(bw, "%d\t0\t%s\t-1\t%d\t%d\tOK\n", i+1, m.op, m.start, end)
	}
	base := len(r.measurements) + 1
	for i, s := range r.spans {
		fmt.Fprintf(bw, "%d\t%d\t%s\t%d\t%d\t%d\t%s\n",
			base+i, s.parent, s.kind, s.client, s.start, s.end, s.err)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}
