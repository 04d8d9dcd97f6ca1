// Package lustre models a parallel file system in the style of Lustre
// 1.6 (the LRZ configuration of §4.1.2): a single metadata server (MDS)
// backed by a journaling local file system, a set of object storage
// servers (OSS), MDS-side object pre-allocation in batches (whose refill
// stalls are visible in time-interval logs, §4.3.4), and an optional
// client-side metadata write-back cache (§4.8) that acknowledges creates
// locally and drains them to the MDS in the background.
package lustre

import (
	"fmt"
	"strconv"
	"time"

	"dmetabench/internal/clientcache"
	"dmetabench/internal/cluster"
	"dmetabench/internal/fs"
	"dmetabench/internal/namespace"
	"dmetabench/internal/service"
	"dmetabench/internal/sim"
	"dmetabench/internal/simnet"
	"dmetabench/internal/storage"
)

// Config holds the tunables of the Lustre model.
type Config struct {
	MDSThreads    int
	NumOSS        int
	OneWayLatency time.Duration

	CreateService   time.Duration
	GetattrService  time.Duration
	RemoveService   time.Duration
	MkdirService    time.Duration
	RenameService   time.Duration
	ReaddirService  time.Duration
	ReaddirPerEntry time.Duration

	// PreallocBatch objects are granted per OSS refill; a create that
	// finds the MDS pool for its OSS empty performs a synchronous OSS
	// RPC (OSSRefillService + 2*OneWayLatency) while holding the MDS
	// thread — the allocation stalls of §4.3.4.
	PreallocBatch    int
	OSSRefillService time.Duration

	// Writeback enables the client metadata write-back cache: creates
	// complete locally and at most WritebackWindow operations may be
	// outstanding before creates block on the flusher.
	Writeback       bool
	WritebackWindow int

	AttrTTL   time.Duration
	DentryTTL time.Duration
	DirIndex  namespace.DirIndex
	// JournalCommit is the MDS journal group-commit interval.
	JournalCommit time.Duration
	ClientNice    int
	// Domains > 1 partitions the cell into kernel domains via the shared
	// service runtime (internal/service): domain 0 runs the clients (and
	// the write-back flushers), and the MDS — namespace, journal,
	// directory locks, prealloc pools — plus the OSS fan out round-robin
	// over domains 1..D-1. RPCs and refills become timestamped
	// cross-domain messages. With Domains <= 1 the model runs on the
	// single kernel; both layouts share every RPC body, and only the
	// write-back existence check and size-on-close differ by protocol.
	Domains int
}

// DefaultConfig approximates the LRZ Lustre 1.6 system: one MDS, twelve
// OSS, creates noticeably more expensive than on the NFS filer.
func DefaultConfig() Config {
	return Config{
		MDSThreads:       4,
		NumOSS:           12,
		OneWayLatency:    250 * time.Microsecond,
		CreateService:    420 * time.Microsecond,
		GetattrService:   90 * time.Microsecond,
		RemoveService:    380 * time.Microsecond,
		MkdirService:     450 * time.Microsecond,
		RenameService:    500 * time.Microsecond,
		ReaddirService:   150 * time.Microsecond,
		ReaddirPerEntry:  900 * time.Nanosecond,
		PreallocBatch:    128,
		OSSRefillService: 300 * time.Microsecond,
		Writeback:        false,
		WritebackWindow:  4096,
		AttrTTL:          2 * time.Second,
		DentryTTL:        30 * time.Second,
		DirIndex:         namespace.IndexBTree,
		JournalCommit:    5 * time.Second,
		ClientNice:       0,
	}
}

// FS is one Lustre file system instance.
type FS struct {
	k   *sim.Kernel
	cfg Config

	// rt is the shared service runtime (domain placement): server 0 is
	// the MDS, servers 1..NumOSS the object servers. With Domains > 1
	// all MDS-side state below lives on rt.KernelFor(0).
	rt *service.Runtime

	mds     *simnet.Server
	oss     []*simnet.Server
	ossConn []*simnet.Conn // MDS-side connections for prealloc refills
	// dataConn holds the client-side connection to each OSS for data
	// flushes. They carry no bandwidth limit, so one shared Conn per OSS
	// has no wire state to share.
	dataConn []*simnet.Conn
	// refill is the OSS-side body of a prealloc refill.
	refill  simnet.Delay
	journal *storage.Journal
	ns      *namespace.Namespace

	conns    map[*cluster.Node]*simnet.Conn
	dirLocks map[fs.Ino]*sim.Mutex
	nodes    map[*cluster.Node]*wbState

	// pool is the MDS-side pre-allocated object count per OSS.
	pool    []int
	nextOSS int
	// RefillCount counts synchronous OSS refill RPCs (test observability).
	RefillCount int
	rpcs        int64

	// aggOps/aggShed/aggBusy count background demand injected through
	// AttachAggregate (operations, shed operations, busy nanoseconds).
	aggOps  int64
	aggShed int64
	aggBusy int64
}

// wbState is per-node client state: caches plus the write-back log.
type wbState struct {
	attrs    *clientcache.AttrCache
	dentries *clientcache.DentryCache

	pending map[string]fs.Attr // locally completed, not yet at the MDS
	// pendingIn counts the pending entries per parent directory.
	pendingIn map[string]int
	queue     *sim.Queue
	window    *sim.Semaphore
	flusher   *sim.Proc
	flushed   *sim.Cond
	// drain is the flusher's one in-flight replayed create.
	drain req
}

// New creates a Lustre file system on kernel k.
func New(k *sim.Kernel, name string, cfg Config) *FS {
	rt := service.New(k, 1+cfg.NumOSS, cfg.Domains, cfg.OneWayLatency)
	mk := rt.KernelFor(0) // the MDS and everything it owns
	disk := storage.NewDisk(mk, "mdt:"+name, 4, 4*time.Millisecond, 80<<20)
	f := &FS{
		k:        k,
		cfg:      cfg,
		rt:       rt,
		mds:      simnet.NewServer(mk, "mds:"+name, cfg.MDSThreads),
		journal:  storage.NewJournal(mk, "mds:"+name, disk, cfg.JournalCommit),
		ns:       namespace.New(),
		conns:    make(map[*cluster.Node]*simnet.Conn),
		dirLocks: make(map[fs.Ino]*sim.Mutex),
		nodes:    make(map[*cluster.Node]*wbState),
		pool:     make([]int, cfg.NumOSS),
		refill:   simnet.Delay(cfg.OSSRefillService),
	}
	for i := 0; i < cfg.NumOSS; i++ {
		ok := rt.KernelFor(1 + i)
		srv := simnet.NewServer(ok, fmt.Sprintf("oss%d:%s", i, name), 2)
		f.oss = append(f.oss, srv)
		// Refill connections originate at the MDS, so their wire state
		// (unused here: bandwidth 0) belongs to the MDS kernel.
		f.ossConn = append(f.ossConn, simnet.NewConn(mk, srv, cfg.OneWayLatency, 0))
		f.dataConn = append(f.dataConn, simnet.NewConn(k, srv, cfg.OneWayLatency, 0))
	}
	return f
}

// Group exposes the FS's domain group (nil when Domains <= 1); tests
// pin worker-count invariance through it.
func (f *FS) Group() *sim.DomainGroup { return f.rt.Group() }

// domained reports whether the MDS runs in its own kernel domain.
func (f *FS) domained() bool { return f.rt.Domained() }

// AttachAggregate starts the background injector (internal/service):
// MDSThreads daemon lanes on the MDS kernel domain, each drawing
// src(0, lane, tick) in strict tick order and occupying one MDS thread
// for the priced duration — analytically modeled client populations
// (internal/agg) loading the single MDS without per-client state. Call
// before the kernel runs.
func (f *FS) AttachAggregate(tick time.Duration, src func(server, lane, tick int) service.Demand) {
	service.AttachAggregate(service.AggregateConfig{
		Servers: 1,
		Lanes:   f.cfg.MDSThreads,
		Tick:    tick,
		Kernel:  func(int) *sim.Kernel { return f.mds.Kernel() },
		Pool:    func(int) *sim.Resource { return f.mds.Threads },
		Source:  src,
		Price:   func(_ int, d service.Demand) time.Duration { return f.priceAggregate(d) },
		Ops:     &f.aggOps,
		Shed:    &f.aggShed,
		Busy:    &f.aggBusy,
	})
}

// AggCounts returns injected / shed operation counts and cumulative
// injected service time; safe mid-run from any domain.
func (f *FS) AggCounts() (ops, shed int64, busy time.Duration) {
	return service.LoadI64(&f.aggOps), service.LoadI64(&f.aggShed),
		time.Duration(service.LoadI64(&f.aggBusy))
}

// priceAggregate prices one demand batch at the MDS's base per-class
// RPC costs (the model has no Lustre LOOKUP class; lookups price as
// GETATTRs). Directory-index and journal factors are not applied — the
// analytic stream has no concrete directories — which prices the
// background conservatively.
func (f *FS) priceAggregate(d service.Demand) time.Duration {
	return service.PriceTable{
		Getattr: f.cfg.GetattrService,
		Lookup:  f.cfg.GetattrService,
		Readdir: f.cfg.ReaddirService,
		Create:  f.cfg.CreateService,
	}.Price(d)
}

// Name identifies the model.
func (f *FS) Name() string {
	if f.cfg.Writeback {
		return "lustre-wb"
	}
	return "lustre"
}

// Namespace exposes the MDS namespace.
func (f *FS) Namespace() *namespace.Namespace { return f.ns }

// RPCCount returns the number of MDS RPCs served.
func (f *FS) RPCCount() int64 { return f.rpcs }

func (f *FS) conn(n *cluster.Node) *simnet.Conn {
	c, ok := f.conns[n]
	if !ok {
		c = simnet.NewConn(f.k, f.mds, f.cfg.OneWayLatency, 0)
		f.conns[n] = c
	}
	return c
}

func (f *FS) nodeState(n *cluster.Node) *wbState {
	s, ok := f.nodes[n]
	if !ok {
		s = &wbState{
			attrs:    clientcache.NewAttrCache(f.cfg.AttrTTL, f.k.Now),
			dentries: clientcache.NewDentryCache(f.cfg.DentryTTL, f.k.Now),
			pending:  make(map[string]fs.Attr),
		}
		if f.cfg.Writeback {
			s.pendingIn = make(map[string]int)
			s.queue = sim.NewQueue(f.k, "wb:"+n.Name)
			s.window = sim.NewSemaphore(f.k, "wbwin:"+n.Name, int64(f.cfg.WritebackWindow))
			s.flushed = sim.NewCond(f.k, "wbflushed:"+n.Name)
			s.flusher = f.k.SpawnDaemon("wbflush:"+n.Name, func(p *sim.Proc) {
				f.flushLoop(p, n, s)
			})
		}
		f.nodes[n] = s
	}
	return s
}

func (f *FS) dirLock(ino fs.Ino) *sim.Mutex {
	m, ok := f.dirLocks[ino]
	if !ok {
		// MDS-side lock: it lives (and is only ever locked) on the MDS
		// kernel domain.
		m = sim.NewMutex(f.mds.Kernel(), "mdsdir:"+strconv.FormatUint(uint64(ino), 10))
		f.dirLocks[ino] = m
	}
	return m
}

// allocObject consumes a pre-allocated object, refilling the pool with a
// synchronous OSS RPC when empty. Called while holding an MDS thread.
func (f *FS) allocObject(sp *sim.Proc) {
	idx := f.nextOSS
	f.nextOSS = (f.nextOSS + 1) % len(f.pool)
	if f.pool[idx] == 0 {
		f.RefillCount++
		// The refill runs from an MDS-domain proc; the OSS may live in
		// another domain, which Call handles.
		f.ossConn[idx].Call(sp, 200, 200, &f.refill)
		f.pool[idx] = f.cfg.PreallocBatch
	}
	f.pool[idx]--
}

// mdsCreate runs the server side of one create while holding an MDS
// thread: directory lock, service time, object allocation, journal.
func (f *FS) mdsCreate(sp *sim.Proc, p string) error {
	lock := f.lockParent(p)
	if lock != nil {
		lock.Lock(sp)
		defer lock.Unlock()
	}
	entries := f.parentEntries(p)
	t := float64(f.cfg.CreateService) * f.cfg.DirIndex.EntryCost(entries)
	sp.Sleep(time.Duration(t))
	f.rpcs++
	if _, err := f.ns.Create(p, 0o644, sp.Now()); err != nil {
		return err
	}
	f.allocObject(sp)
	f.journal.Log(512)
	return nil
}

func (f *FS) parentEntries(p string) int {
	dir, err := f.ns.Lookup(fs.ParentDir(p))
	if err != nil {
		return 0
	}
	return dir.NumChildren()
}

func (f *FS) lockParent(p string) *sim.Mutex {
	dir, err := f.ns.Lookup(fs.ParentDir(p))
	if err != nil {
		return nil
	}
	return f.dirLock(dir.Ino)
}

// flushLoop drains the write-back log of one node to the MDS.
func (f *FS) flushLoop(p *sim.Proc, n *cluster.Node, s *wbState) {
	conn := f.conn(n)
	for {
		item := s.queue.Get(p).(string)
		// Errors at replay (e.g. a conflicting create from another
		// node) are dropped; the benchmark namespace is partitioned
		// per process so conflicts cannot occur in our workloads.
		s.drain = req{fsys: f, op: fs.OpCreate, path: item}
		conn.Call(p, 200, 160, &s.drain)
		delete(s.pending, item)
		dir := fs.ParentDir(item)
		if s.pendingIn[dir]--; s.pendingIn[dir] == 0 {
			delete(s.pendingIn, dir)
		}
		s.window.Release(1)
		s.flushed.Broadcast()
	}
}

// NewClient binds a client for one process on one node.
func (f *FS) NewClient(node *cluster.Node, p *sim.Proc) fs.Client {
	return &client{fsys: f, node: node, p: p, handles: make(map[fs.Handle]*openFile)}
}

type openFile struct {
	path    string
	size    int64
	written int64
	dirty   bool
}

type client struct {
	fsys    *FS
	node    *cluster.Node
	p       *sim.Proc
	nextFH  fs.Handle
	handles map[fs.Handle]*openFile
	// r is the client's one in-flight MDS RPC (see req); data is the
	// OSS-side body of its data flushes.
	r    req
	data simnet.Delay
}

func (c *client) cfg() *Config     { return &c.fsys.cfg }
func (c *client) st() *wbState     { return c.fsys.nodeState(c.node) }
func (c *client) cn() *simnet.Conn { return c.fsys.conn(c.node) }

// req is one MDS RPC. A client issues one synchronous RPC at a time, so
// it holds a single req by value and reuses it: the client fills in the
// operation and its arguments, Serve runs on the MDS (in the MDS's
// kernel domain when the cell is domained) and writes the results back,
// and the client applies its cache fills after Call returns — one body
// per operation for both kernel layouts. OpStat stands for the GETATTR
// intent every lookup-type client call issues.
type req struct {
	fsys *FS
	op   fs.OpKind
	// path is the entry the operation addresses (its parent is the
	// directory the MDS locks); other is the second name: the rename
	// destination, the existing name a link points at, the symlink
	// target.
	path, other string
	// svc and logBytes are the service time and journal record size of
	// a namespace change (logBytes 0: not journaled).
	svc      time.Duration
	logBytes int64
	// fill asks a create to return the new entry's attributes.
	fill bool

	// Results.
	err    error
	attr   fs.Attr
	attrOK bool // attr holds the created entry's attributes (fill)
	ents   []fs.DirEntry
}

// begin resets the client's request for op on path.
func (c *client) begin(op fs.OpKind, path string) *req {
	c.r = req{fsys: c.fsys, op: op, path: path}
	return &c.r
}

// getattr issues one GETATTR intent RPC for p.
func (c *client) getattr(p string) *req {
	r := c.begin(fs.OpStat, p)
	c.cn().Call(c.p, 150, 170, r)
	return r
}

// Serve runs the operation on the MDS.
func (r *req) Serve(sp *sim.Proc) {
	f, cfg := r.fsys, &r.fsys.cfg
	switch r.op {
	case fs.OpStat:
		sp.Sleep(cfg.GetattrService)
		f.rpcs++
		r.attr, r.err = f.ns.Stat(r.path)
	case fs.OpCreate:
		r.err = f.mdsCreate(sp, r.path)
		if r.err == nil && r.fill {
			var err error
			r.attr, err = f.ns.Stat(r.path)
			r.attrOK = err == nil
		}
	case fs.OpReadDir:
		r.ents, r.err = f.ns.ReadDir(r.path, sp.Now())
		pages := 1
		if r.err == nil {
			pages = (len(r.ents) + 1023) / 1024
			if pages < 1 {
				pages = 1
			}
		}
		sp.Sleep(time.Duration(pages)*cfg.ReaddirService +
			time.Duration(len(r.ents))*cfg.ReaddirPerEntry)
		f.rpcs++
	default:
		r.modify(sp)
	}
}

// modify serves the other namespace-changing operations: under the
// MDS-side lock of the parent directory, the service charge priced by
// the directory's size, then the change and its journal record.
func (r *req) modify(sp *sim.Proc) {
	f := r.fsys
	lock := f.lockParent(r.path)
	if lock != nil {
		lock.Lock(sp)
		defer lock.Unlock()
	}
	t := float64(r.svc) * f.cfg.DirIndex.EntryCost(f.parentEntries(r.path))
	sp.Sleep(time.Duration(t))
	f.rpcs++
	r.err = f.ns.Apply(r.op, r.path, r.other, sp.Now())
	if r.err == nil && r.logBytes > 0 {
		f.journal.Log(r.logBytes)
	}
}

// Create either performs a synchronous intent-create RPC, or — in
// write-back mode — completes locally and enqueues the operation for the
// background flusher, blocking only when the write-back window is full.
func (c *client) Create(p string) error {
	cfg := c.cfg()
	c.node.SyscallNice(c.p, cfg.ClientNice)
	st := c.st()
	if cfg.Writeback {
		if _, dup := st.pending[p]; dup {
			return fs.NewError("create", p, fs.EEXIST)
		}
		if c.pathExists(p) {
			return fs.NewError("create", p, fs.EEXIST)
		}
		st.window.Acquire(c.p, 1) // blocks when the window is exhausted
		a := fs.Attr{Type: fs.TypeRegular, Nlink: 1, Mode: 0o644,
			Mtime: c.p.Now(), Ctime: c.p.Now(), Atime: c.p.Now()}
		st.pending[p] = a
		st.pendingIn[fs.ParentDir(p)]++
		st.queue.Put(p)
		// Local bookkeeping cost of the cached operation.
		c.node.ExecNice(c.p, 4*time.Microsecond, cfg.ClientNice)
		return nil
	}
	imutex := c.node.DirLock(fs.ParentDir(p))
	imutex.Lock(c.p)
	defer imutex.Unlock()
	r := c.begin(fs.OpCreate, p)
	r.fill = true
	c.cn().Call(c.p, 220, 180, r)
	if r.attrOK {
		st.attrs.Put(p, r.attr)
		st.dentries.PutPositive(p, r.attr.Ino)
	}
	return r.err
}

// pathExists answers the write-back create's existence check. On the
// single kernel it is a free namespace read. Under domains the MDS
// namespace may not be read from the client: pending entries and the
// client caches answer locally (a write-back client holds the directory
// under lease, §4.8), and an unknown path pays a real GETATTR intent to
// the MDS.
func (c *client) pathExists(p string) bool {
	if !c.fsys.domained() {
		_, err := c.fsys.ns.Stat(p)
		return err == nil
	}
	st := c.st()
	if _, ok := st.attrs.Get(p); ok {
		return true
	}
	if _, neg, ok := st.dentries.Lookup(p); ok {
		return !neg
	}
	r := c.getattr(p)
	if r.err != nil {
		st.dentries.PutNegative(p)
		return false
	}
	st.attrs.Put(p, r.attr)
	st.dentries.PutPositive(p, r.attr.Ino)
	return true
}

// waitNotPending blocks until p has been flushed to the MDS (write-back
// mode ordering barrier for operations that follow a cached create).
func (c *client) waitNotPending(p string) {
	st := c.st()
	for {
		if _, ok := st.pending[p]; !ok {
			return
		}
		st.flushed.Wait(c.p)
	}
}

// Open resolves the path and returns a handle.
func (c *client) Open(p string) (fs.Handle, error) {
	c.node.SyscallNice(c.p, c.cfg().ClientNice)
	st := c.st()
	if _, ok := st.pending[p]; ok {
		c.nextFH++
		c.handles[c.nextFH] = &openFile{path: p}
		return c.nextFH, nil
	}
	a, ok := st.attrs.Get(p)
	if !ok {
		r := c.getattr(p)
		if r.err != nil {
			return 0, r.err
		}
		a = r.attr
		st.attrs.Put(p, a)
	}
	c.nextFH++
	c.handles[c.nextFH] = &openFile{path: p, size: a.Size}
	return c.nextFH, nil
}

// Close flushes buffered writes to the objects (data goes to the OSS, not
// the MDS).
func (c *client) Close(h fs.Handle) error {
	c.node.Syscall(c.p)
	of, ok := c.handles[h]
	if !ok {
		return fs.NewError("close", "", fs.EBADF)
	}
	delete(c.handles, h)
	if of.dirty {
		c.flushData(of)
	}
	return nil
}

// Write buffers data locally (Lustre client cache).
func (c *client) Write(h fs.Handle, n int64) error {
	c.node.Syscall(c.p)
	of, ok := c.handles[h]
	if !ok {
		return fs.NewError("write", "", fs.EBADF)
	}
	of.written += n
	of.dirty = true
	return nil
}

// Fsync forces buffered data out.
func (c *client) Fsync(h fs.Handle) error {
	c.node.Syscall(c.p)
	of, ok := c.handles[h]
	if !ok {
		return fs.NewError("fsync", "", fs.EBADF)
	}
	if of.dirty {
		c.flushData(of)
	}
	return nil
}

// sizeOnClose is the MDS-side body of the asynchronous size update a
// client sends after flushing data; it outlives the flush, so each
// update is its own value.
type sizeOnClose struct {
	fsys    *FS
	path    string
	written int64
}

// Serve applies the size update.
func (u *sizeOnClose) Serve(sp *sim.Proc) {
	ns := u.fsys.ns
	if node, err := ns.Lookup(u.path); err == nil {
		ns.SetSize(node.Ino, node.Size+u.written, sp.Now())
	}
}

// flushData sends dirty file data to the object's OSS.
func (c *client) flushData(of *openFile) {
	f := c.fsys
	idx := 0
	if n := len(f.oss); n > 0 {
		idx = int(of.written) % n
	}
	c.data = simnet.Delay(float64(50*time.Microsecond) * (1 + float64(of.written)/65536))
	f.dataConn[idx].Call(c.p, 150+of.written, 150, &c.data)
	st := c.st()
	if a, ok := st.pending[of.path]; ok {
		a.Size += of.written
		st.pending[of.path] = a
	} else if f.domained() {
		// The MDS namespace may not be touched from the client's domain:
		// the size update travels as a fire-and-forget size-on-close
		// message to the MDS (the asynchronous MDS_SIZE update a Lustre
		// client issues), and the local attribute refresh rides on the
		// open handle's own bookkeeping instead of a namespace read.
		c.cn().OneWay(c.p, 120, &sizeOnClose{fsys: f, path: of.path, written: of.written})
	} else if node, err := f.ns.Lookup(of.path); err == nil {
		f.ns.SetSize(node.Ino, node.Size+of.written, c.p.Now())
		// The writing client holds the object lock and knows the new
		// size; refresh its attribute cache so local stats see it.
		if a, err := f.ns.Stat(of.path); err == nil {
			st.attrs.Put(of.path, a)
		}
	}
	of.size += of.written
	of.written = 0
	of.dirty = false
}

// Mkdir issues a synchronous MKDIR RPC to the MDS.
func (c *client) Mkdir(p string) error {
	return c.modifyRPC(fs.OpMkdir, p, "", c.cfg().MkdirService, 512)
}

// Rmdir issues a synchronous RPC.
func (c *client) Rmdir(p string) error {
	return c.modifyRPC(fs.OpRmdir, p, "", c.cfg().RemoveService, 256)
}

// Unlink issues a synchronous RPC; in write-back mode it first waits for
// a pending create of the same path to drain.
func (c *client) Unlink(p string) error {
	if c.cfg().Writeback {
		c.waitNotPending(p)
	}
	err := c.modifyRPC(fs.OpUnlink, p, "", c.cfg().RemoveService, 256)
	if err == nil {
		st := c.st()
		st.attrs.Invalidate(p)
		st.dentries.Invalidate(p)
	}
	return err
}

// Rename issues a synchronous RPC.
func (c *client) Rename(oldPath, newPath string) error {
	if c.cfg().Writeback {
		c.waitNotPending(oldPath)
	}
	err := c.modifyRPC(fs.OpRename, oldPath, newPath, c.cfg().RenameService, 512)
	if err == nil {
		st := c.st()
		st.attrs.Invalidate(oldPath)
		st.dentries.Invalidate(oldPath)
		st.attrs.Invalidate(newPath)
		st.dentries.Invalidate(newPath)
	}
	return err
}

// Link issues a synchronous RPC.
func (c *client) Link(oldPath, newPath string) error {
	if c.cfg().Writeback {
		c.waitNotPending(oldPath)
	}
	return c.modifyRPC(fs.OpLink, newPath, oldPath, c.cfg().CreateService, 0)
}

// Symlink issues a synchronous RPC to the MDS.
func (c *client) Symlink(target, linkPath string) error {
	return c.modifyRPC(fs.OpSymlink, linkPath, target, c.cfg().CreateService, 384)
}

// modifyRPC issues one namespace-changing RPC under the client-side
// i_mutex of p's parent directory; a change journals logBytes.
func (c *client) modifyRPC(op fs.OpKind, p, other string, svc time.Duration, logBytes int64) error {
	c.node.SyscallNice(c.p, c.cfg().ClientNice)
	imutex := c.node.DirLock(fs.ParentDir(p))
	imutex.Lock(c.p)
	defer imutex.Unlock()
	r := c.begin(op, p)
	r.other, r.svc, r.logBytes = other, svc, logBytes
	c.cn().Call(c.p, 200, 160, r)
	return r.err
}

// Stat serves pending write-back entries and fresh cached attributes
// locally, otherwise issues a GETATTR RPC to the MDS.
func (c *client) Stat(p string) (fs.Attr, error) {
	c.node.SyscallNice(c.p, c.cfg().ClientNice)
	st := c.st()
	if a, ok := st.pending[p]; ok {
		return a, nil
	}
	if a, ok := st.attrs.Get(p); ok {
		return a, nil
	}
	r := c.getattr(p)
	if r.err != nil {
		return fs.Attr{}, r.err
	}
	st.attrs.Put(p, r.attr)
	st.dentries.PutPositive(p, r.attr.Ino)
	return r.attr, nil
}

// ReadDir issues READDIR RPCs to the MDS. In write-back mode it first
// waits for the node's pending creates in p to drain, so the listing
// includes the client's own entries.
func (c *client) ReadDir(p string) ([]fs.DirEntry, error) {
	c.node.Syscall(c.p)
	if c.cfg().Writeback {
		st := c.st()
		for st.pendingIn[p] > 0 {
			st.flushed.Wait(c.p)
		}
	}
	r := c.begin(fs.OpReadDir, p)
	c.cn().Call(c.p, 150, 300, r)
	ents := r.ents
	r.ents = nil // the caller owns the slice
	return ents, r.err
}

// DropCaches clears the node's volatile caches (the write-back log is
// not discarded — it holds unflushed modifications).
func (c *client) DropCaches() {
	c.node.Syscall(c.p)
	st := c.st()
	st.attrs.Clear()
	st.dentries.Clear()
}
