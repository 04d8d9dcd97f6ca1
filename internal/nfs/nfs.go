// Package nfs models a client–server distributed file system in the
// style of NFSv3 against a WAFL-based filer (the LRZ production setup of
// §4.1.2): synchronous metadata operations, close-to-open consistency,
// client attribute and dentry caches, a server thread pool, per-directory
// serialization at both client (VFS i_mutex) and server, and NVRAM
// logging with consistency points.
package nfs

import (
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

// Config holds the tunables of the NFS model. The defaults approximate a
// FAS3050-class filer on gigabit ethernet.
type Config struct {
	// ServerThreads is the filer's usable CPU parallelism.
	ServerThreads int
	// OneWayLatency is the network one-way delay client->server.
	OneWayLatency time.Duration
	// Bandwidth of the server uplink in bytes/s (0 = unlimited).
	Bandwidth int64
	// Service times for the metadata RPC classes.
	CreateService     time.Duration
	GetattrService    time.Duration
	LookupService     time.Duration
	RemoveService     time.Duration
	MkdirService      time.Duration
	RenameService     time.Duration
	ReaddirService    time.Duration // per RPC; entries add ReaddirPerEntry
	ReaddirPerEntry   time.Duration
	WriteServicePerKB time.Duration
	// InodeInlineBytes: writes that keep the file at or below this size
	// stay in the inode (WAFL stores tiny files inline); crossing it
	// allocates a block (the MakeFiles64byte/65byte probe, §3.3.8).
	InodeInlineBytes int64
	// BlockAllocService is the extra service time for the first block.
	BlockAllocService time.Duration
	// AttrTTL and DentryTTL are the client cache lifetimes.
	AttrTTL   time.Duration
	DentryTTL time.Duration
	// DirIndex is the server directory data structure.
	DirIndex namespace.DirIndex
	// WAFL parameterizes the storage backend.
	WAFL storage.WAFLConfig
	// MetaLogBytes is the NVRAM log record size per namespace change.
	MetaLogBytes int64
	// ClientNice is the niceness benchmark processes run at (see §4.4).
	ClientNice int
	// Domains > 1 partitions the cell into kernel domains via the shared
	// service runtime (internal/service): domain 0 runs the clients,
	// domain 1 the filer — its thread pool, WAFL, namespace and
	// directory locks — and every RPC becomes a timestamped
	// cross-domain message. With Domains <= 1 the model runs on the
	// single kernel; both layouts share every RPC body.
	Domains int
}

// DefaultConfig returns the FAS3050-like parameter set.
func DefaultConfig() Config {
	return Config{
		ServerThreads:     4,
		OneWayLatency:     250 * time.Microsecond,
		Bandwidth:         0,
		CreateService:     150 * time.Microsecond,
		GetattrService:    40 * time.Microsecond,
		LookupService:     40 * time.Microsecond,
		RemoveService:     140 * time.Microsecond,
		MkdirService:      180 * time.Microsecond,
		RenameService:     180 * time.Microsecond,
		ReaddirService:    120 * time.Microsecond,
		ReaddirPerEntry:   800 * time.Nanosecond,
		WriteServicePerKB: 30 * time.Microsecond,
		InodeInlineBytes:  64,
		BlockAllocService: 60 * time.Microsecond,
		AttrTTL:           3 * time.Second,
		DentryTTL:         30 * time.Second,
		DirIndex:          namespace.IndexHash,
		WAFL:              storage.DefaultWAFLConfig(),
		MetaLogBytes:      320,
	}
}

// FS is one exported NFS file system (one filer volume).
type FS struct {
	k   *sim.Kernel
	cfg Config

	// rt is the shared service runtime (domain placement); with
	// Domains > 1 the filer's state below lives on rt.KernelFor(0).
	rt *service.Runtime

	srv   *simnet.Server
	wafl  *storage.WAFL
	ns    *namespace.Namespace
	conns map[*cluster.Node]*simnet.Conn

	// dirLocks serialize same-directory modifications at the server.
	dirLocks map[fs.Ino]*sim.Mutex

	// nodes holds per-OS-instance client cache state.
	nodes map[*cluster.Node]*nodeState

	rpcs int64

	// aggOps/aggShed/aggBusy count background demand injected through
	// AttachAggregate (operations, shed operations, busy nanoseconds).
	aggOps  int64
	aggShed int64
	aggBusy int64
}

type nodeState struct {
	attrs    *clientcache.AttrCache
	dentries *clientcache.DentryCache
}

// New creates an NFS file system on kernel k.
func New(k *sim.Kernel, name string, cfg Config) *FS {
	rt := service.New(k, 1, cfg.Domains, cfg.OneWayLatency)
	sk := rt.KernelFor(0)
	f := &FS{
		k:        k,
		cfg:      cfg,
		rt:       rt,
		srv:      simnet.NewServer(sk, "nfs:"+name, cfg.ServerThreads),
		wafl:     storage.NewWAFL(sk, name, cfg.WAFL),
		ns:       namespace.New(),
		conns:    make(map[*cluster.Node]*simnet.Conn),
		dirLocks: make(map[fs.Ino]*sim.Mutex),
		nodes:    make(map[*cluster.Node]*nodeState),
	}
	return f
}

// Group exposes the FS's domain group (nil when Domains <= 1); tests
// pin worker-count invariance through it.
func (f *FS) Group() *sim.DomainGroup { return f.rt.Group() }

// Name identifies the model in results and charts.
func (f *FS) Name() string { return "nfs" }

// Namespace exposes the authoritative server namespace (for tests and
// environment profiling).
func (f *FS) Namespace() *namespace.Namespace { return f.ns }

// WAFL exposes the storage backend (for disturbance injection).
func (f *FS) WAFL() *storage.WAFL { return f.wafl }

// RPCCount returns the number of RPCs served so far.
func (f *FS) RPCCount() int64 { return f.rpcs }

func (f *FS) conn(n *cluster.Node) *simnet.Conn {
	c, ok := f.conns[n]
	if !ok {
		c = simnet.NewConn(f.k, f.srv, f.cfg.OneWayLatency, f.cfg.Bandwidth)
		f.conns[n] = c
	}
	return c
}

func (f *FS) nodeState(n *cluster.Node) *nodeState {
	s, ok := f.nodes[n]
	if !ok {
		s = &nodeState{
			attrs:    clientcache.NewAttrCache(f.cfg.AttrTTL, f.k.Now),
			dentries: clientcache.NewDentryCache(f.cfg.DentryTTL, f.k.Now),
		}
		f.nodes[n] = s
	}
	return s
}

func (f *FS) dirLock(ino fs.Ino) *sim.Mutex {
	m, ok := f.dirLocks[ino]
	if !ok {
		// Server-side lock: it lives (and is only ever locked) on the
		// filer's kernel domain.
		m = sim.NewMutex(f.srv.Kernel(), "nfsdir:"+strconv.FormatUint(uint64(ino), 10))
		f.dirLocks[ino] = m
	}
	return m
}

// AttachAggregate starts the background injector (internal/service):
// ServerThreads daemon lanes on the filer's kernel domain, each drawing
// src(0, lane, tick) in strict tick order and occupying one server
// thread for the priced duration — analytically modeled client
// populations (internal/agg) saturating the single filer without
// per-client state (E35). Call before the kernel runs.
func (f *FS) AttachAggregate(tick time.Duration, src func(server, lane, tick int) service.Demand) {
	service.AttachAggregate(service.AggregateConfig{
		Servers: 1,
		Lanes:   f.cfg.ServerThreads,
		Tick:    tick,
		Kernel:  func(int) *sim.Kernel { return f.srv.Kernel() },
		Pool:    func(int) *sim.Resource { return f.srv.Threads },
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

// priceAggregate converts one demand batch into service time: the base
// per-class RPC costs scaled by the filer's current consistency-point
// factor, exactly as foreground RPCs are priced. Directory-index
// factors are not applied — the analytic stream has no concrete
// directories — which prices the background conservatively.
func (f *FS) priceAggregate(d service.Demand) time.Duration {
	base := service.PriceTable{
		Getattr: f.cfg.GetattrService,
		Lookup:  f.cfg.LookupService,
		Readdir: f.cfg.ReaddirService,
		Create:  f.cfg.CreateService,
	}.Price(d)
	if base <= 0 {
		return 0
	}
	return time.Duration(float64(base) * f.wafl.ServiceFactor())
}

// service charges t (scaled by directory-size and CP factors) while
// holding a server thread; the caller supplies the parent directory size
// when the op touches a directory index.
func (f *FS) service(p *sim.Proc, base time.Duration, dirEntries int) {
	cost := float64(base) * f.wafl.ServiceFactor()
	if dirEntries >= 0 {
		cost *= f.cfg.DirIndex.EntryCost(dirEntries)
	}
	p.Sleep(time.Duration(cost))
	f.rpcs++
}

// parentEntries returns the entry count of path's parent directory, if it
// resolves; otherwise 0.
func (f *FS) parentEntries(p string) int {
	dir, err := f.ns.Lookup(fs.ParentDir(p))
	if err != nil {
		return 0
	}
	return dir.NumChildren()
}

// lockParent returns the server-side lock of path's parent directory (or
// nil if the parent does not resolve).
func (f *FS) lockParent(p string) *sim.Mutex {
	dir, err := f.ns.Lookup(fs.ParentDir(p))
	if err != nil {
		return nil
	}
	return f.dirLock(dir.Ino)
}

// NewClient binds a client for one process on one node. It satisfies the
// benchmark framework's FileSystem interface.
func (f *FS) NewClient(node *cluster.Node, p *sim.Proc) fs.Client {
	return &client{fsys: f, node: node, p: p, handles: make(map[fs.Handle]*openFile)}
}

type openFile struct {
	path    string
	ino     fs.Ino
	size    int64
	dirty   bool
	written int64
}

// client implements fs.Client for one (node, process) pair.
type client struct {
	fsys    *FS
	node    *cluster.Node
	p       *sim.Proc
	nextFH  fs.Handle
	handles map[fs.Handle]*openFile
	// r is the client's one in-flight RPC (see req).
	r req
}

func (c *client) cfg() *Config     { return &c.fsys.cfg }
func (c *client) st() *nodeState   { return c.fsys.nodeState(c.node) }
func (c *client) cn() *simnet.Conn { return c.fsys.conn(c.node) }

// req is one NFS RPC. A client issues one synchronous RPC at a time, so
// it holds a single req by value and reuses it: the client fills in the
// operation and its arguments, Serve runs on the filer (in the filer's
// kernel domain when the cell is domained) and writes the results back,
// and the client applies its cache fills after Call returns — one body
// per operation for both kernel layouts, since Serve never touches
// client state and the client never reads the namespace. OpStat stands
// for both LOOKUP and GETATTR, told apart by their service time.
type req struct {
	fsys *FS
	op   fs.OpKind
	// path is the entry the operation addresses (its parent is the
	// directory the server locks); other is the second name: the rename
	// destination, the existing name a link points at, the symlink
	// target.
	path, other string
	svc         time.Duration
	// dirCost prices a lookup by the size of path's directory.
	dirCost bool
	// Write arguments: the inode, its size before and the bytes written.
	ino           fs.Ino
	size, written int64

	// Results.
	err    error
	attr   fs.Attr // path's attributes (lookups), else the post-op ones
	attrOK bool    // attr holds the post-op attributes of a changed entry
	ents   []fs.DirEntry
}

// begin resets the client's request for op on path.
func (c *client) begin(op fs.OpKind, path string, svc time.Duration) *req {
	c.r = req{fsys: c.fsys, op: op, path: path, svc: svc}
	return &c.r
}

// lookup issues one LOOKUP (or, with the GETATTR service time, GETATTR)
// RPC for p.
func (c *client) lookup(p string, svc time.Duration, dirCost bool) *req {
	r := c.begin(fs.OpStat, p, svc)
	r.dirCost = dirCost
	c.cn().Call(c.p, 120, 140, r)
	return r
}

// Serve runs the operation on the filer.
func (r *req) Serve(sp *sim.Proc) {
	f, cfg := r.fsys, &r.fsys.cfg
	switch r.op {
	case fs.OpStat:
		n := -1
		if r.dirCost {
			n = f.parentEntries(r.path)
		}
		f.service(sp, r.svc, n)
		r.attr, r.err = f.ns.Stat(r.path)
	case fs.OpWrite:
		newSize := r.size + r.written
		t := time.Duration(float64(cfg.WriteServicePerKB) * float64(r.written) / 1024)
		if r.size <= cfg.InodeInlineBytes && newSize > cfg.InodeInlineBytes {
			// Crossing the inline threshold allocates the first block.
			t += cfg.BlockAllocService
		}
		f.service(sp, t, -1)
		f.ns.SetSize(r.ino, newSize, sp.Now())
		f.wafl.LogMetadata(sp, cfg.MetaLogBytes+r.written)
		r.postOp(r.path)
	case fs.OpReadDir:
		r.ents, r.err = f.ns.ReadDir(r.path, sp.Now())
		if r.err != nil {
			f.service(sp, cfg.ReaddirService, -1)
			return
		}
		pages := (len(r.ents) + 511) / 512
		if pages < 1 {
			pages = 1
		}
		t := time.Duration(pages)*cfg.ReaddirService +
			time.Duration(len(r.ents))*cfg.ReaddirPerEntry
		f.service(sp, t, -1)
	default:
		r.modify(sp)
	}
}

// modify serves the namespace-changing operations: under the server-side
// lock of the parent directory, the service charge priced by the
// directory's size, the change itself and its NVRAM log record, then
// the post-op attributes of the entry the change created or moved.
func (r *req) modify(sp *sim.Proc) {
	f := r.fsys
	lock := f.lockParent(r.path)
	if lock != nil {
		lock.Lock(sp)
		defer lock.Unlock()
	}
	f.service(sp, r.svc, f.parentEntries(r.path))
	r.err = f.ns.Apply(r.op, r.path, r.other, sp.Now())
	if r.err == nil {
		f.wafl.LogMetadata(sp, f.cfg.MetaLogBytes)
	}
	if r.err != nil && !fs.IsExist(r.err) {
		return
	}
	switch r.op {
	case fs.OpRmdir, fs.OpUnlink:
	case fs.OpRename:
		r.postOp(r.other)
	default:
		r.postOp(r.path)
	}
}

// postOp records path's attributes as the reply's post-op attributes.
func (r *req) postOp(path string) {
	var err error
	r.attr, err = r.fsys.ns.Stat(path)
	r.attrOK = err == nil
}

// fill caches the attributes a reply carried for path.
func (c *client) fill(path string, a fs.Attr) {
	st := c.st()
	st.attrs.Put(path, a)
	st.dentries.PutPositive(path, a.Ino)
}

// resolveParents walks the strict ancestors of p through the dentry
// cache, issuing one LOOKUP RPC per missing component — the POSIX
// requirement that every path component is checked (§2.3.1). With warm
// dentries (30 s TTL) the walk is free; after a cache drop a deep path
// costs one round trip per level.
func (c *client) resolveParents(p string) error {
	st := c.st()
	for i := 1; i < len(p); i++ {
		if p[i] != '/' {
			continue
		}
		prefix := p[:i]
		if _, neg, ok := st.dentries.Lookup(prefix); ok {
			if neg {
				return fs.NewError("lookup", prefix, fs.ENOENT)
			}
			continue
		}
		r := c.lookup(prefix, c.cfg().LookupService, false)
		if r.err != nil {
			st.dentries.PutNegative(prefix)
			return r.err
		}
		c.fill(prefix, r.attr)
	}
	return nil
}

// modifyRPC is the client side of the namespace-changing operations:
// the ancestor walk, then one synchronous RPC under the client-side
// i_mutex of p's parent directory. The post-op attributes the reply
// carries replace any negative dentry left by an earlier failed lookup;
// an EEXIST reply from a create or mkdir still caches the existing
// entry.
func (c *client) modifyRPC(op fs.OpKind, p, other string, svc time.Duration, reqBytes, respBytes int64) error {
	c.node.SyscallNice(c.p, c.cfg().ClientNice)
	if err := c.resolveParents(p); err != nil {
		return err
	}
	imutex := c.node.DirLock(fs.ParentDir(p))
	imutex.Lock(c.p)
	defer imutex.Unlock()
	r := c.begin(op, p, svc)
	r.other = other
	c.cn().Call(c.p, reqBytes, respBytes, r)
	st := c.st()
	switch {
	case r.err != nil && (op == fs.OpCreate || op == fs.OpMkdir) && r.attrOK:
		c.fill(p, r.attr)
	case r.err != nil:
	case op == fs.OpRmdir || op == fs.OpUnlink:
		st.attrs.Invalidate(p)
		st.dentries.Invalidate(p)
	case op == fs.OpRename:
		st.attrs.Invalidate(p)
		st.dentries.Invalidate(p)
		if r.attrOK {
			c.fill(other, r.attr)
		} else {
			st.attrs.Invalidate(other)
			st.dentries.Invalidate(other)
		}
	case r.attrOK:
		c.fill(p, r.attr)
	}
	return r.err
}

// Create performs open(O_CREAT|O_EXCL)+close: one synchronous CREATE RPC
// under the client-side parent i_mutex and the server-side directory
// lock.
func (c *client) Create(p string) error {
	return c.modifyRPC(fs.OpCreate, p, "", c.cfg().CreateService, 160, 160)
}

// Mkdir issues a synchronous MKDIR RPC.
func (c *client) Mkdir(p string) error {
	return c.modifyRPC(fs.OpMkdir, p, "", c.cfg().MkdirService, 150, 140)
}

// Rmdir issues a synchronous RMDIR RPC.
func (c *client) Rmdir(p string) error {
	return c.modifyRPC(fs.OpRmdir, p, "", c.cfg().RemoveService, 150, 140)
}

// Unlink issues a synchronous REMOVE RPC.
func (c *client) Unlink(p string) error {
	return c.modifyRPC(fs.OpUnlink, p, "", c.cfg().RemoveService, 150, 140)
}

// Rename issues a synchronous RENAME RPC (atomic at the server).
func (c *client) Rename(oldPath, newPath string) error {
	return c.modifyRPC(fs.OpRename, oldPath, newPath, c.cfg().RenameService, 150, 140)
}

// Link issues a synchronous LINK RPC.
func (c *client) Link(oldPath, newPath string) error {
	return c.modifyRPC(fs.OpLink, newPath, oldPath, c.cfg().CreateService, 150, 140)
}

// Symlink issues a synchronous SYMLINK RPC.
func (c *client) Symlink(target, linkPath string) error {
	return c.modifyRPC(fs.OpSymlink, linkPath, target, c.cfg().CreateService, 150, 140)
}

// Open resolves the path (dentry cache, else LOOKUP RPC) and returns a
// handle. Close-to-open: the size comes from the LOOKUP reply, from a
// fresh attribute cache entry (the close-to-open GETATTR that populated
// it still applies), or from a real GETATTR revalidation — the round
// trip an actual NFS client issues at open time.
func (c *client) Open(p string) (fs.Handle, error) {
	c.node.SyscallNice(c.p, c.cfg().ClientNice)
	if err := c.resolveParents(p); err != nil {
		return 0, err
	}
	st := c.st()
	ino, neg, ok := st.dentries.Lookup(p)
	var size int64
	sized := false
	if !ok {
		r := c.lookup(p, c.cfg().LookupService, true)
		if r.err != nil {
			st.dentries.PutNegative(p)
			return 0, r.err
		}
		ino, size, sized = r.attr.Ino, r.attr.Size, true
		c.fill(p, r.attr)
	} else if neg {
		return 0, fs.NewError("open", p, fs.ENOENT)
	}
	if !sized {
		if a, ok := st.attrs.Get(p); ok {
			size, sized = a.Size, true
		}
	}
	if !sized {
		r := c.lookup(p, c.cfg().GetattrService, false)
		if r.err != nil {
			st.dentries.Invalidate(p)
			return 0, fs.NewError("open", p, fs.ESTALE)
		}
		ino, size = r.attr.Ino, r.attr.Size
		c.fill(p, r.attr)
	}
	c.nextFH++
	h := c.nextFH
	c.handles[h] = &openFile{path: p, ino: ino, size: size}
	return h, nil
}

// Close flushes dirty data (close-to-open consistency requires the data
// to be on the server when close returns).
func (c *client) Close(h fs.Handle) error {
	c.node.Syscall(c.p)
	of, ok := c.handles[h]
	if !ok {
		return fs.NewError("close", "", fs.EBADF)
	}
	delete(c.handles, h)
	if of.dirty {
		c.flush(of)
	}
	return nil
}

// Write buffers n bytes; the flush happens on Close or Fsync, matching
// the NFS client write-behind cache.
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

// Fsync forces dirty data to the server.
func (c *client) Fsync(h fs.Handle) error {
	c.node.Syscall(c.p)
	of, ok := c.handles[h]
	if !ok {
		return fs.NewError("fsync", "", fs.EBADF)
	}
	if of.dirty {
		c.flush(of)
	}
	return nil
}

// flush issues one WRITE RPC; its reply refreshes the attribute cache.
func (c *client) flush(of *openFile) {
	r := c.begin(fs.OpWrite, of.path, 0)
	r.ino, r.size, r.written = of.ino, of.size, of.written
	c.cn().Call(c.p, 120+of.written, 140, r)
	of.size += of.written
	of.written = 0
	of.dirty = false
	if r.attrOK {
		c.st().attrs.Put(of.path, r.attr)
	}
}

// Stat serves from the attribute cache when fresh, else issues GETATTR.
func (c *client) Stat(p string) (fs.Attr, error) {
	c.node.SyscallNice(c.p, c.cfg().ClientNice)
	st := c.st()
	if a, ok := st.attrs.Get(p); ok {
		return a, nil
	}
	if err := c.resolveParents(p); err != nil {
		return fs.Attr{}, err
	}
	r := c.lookup(p, c.cfg().GetattrService, false)
	if r.err != nil {
		return fs.Attr{}, r.err
	}
	c.fill(p, r.attr)
	return r.attr, nil
}

// ReadDir pages through the directory in 512-entry READDIR RPCs.
func (c *client) ReadDir(p string) ([]fs.DirEntry, error) {
	c.node.Syscall(c.p)
	r := c.begin(fs.OpReadDir, p, 0)
	c.cn().Call(c.p, 130, 260, r)
	ents := r.ents
	r.ents = nil // the caller owns the slice
	return ents, r.err
}

// DropCaches clears the node's attribute and dentry caches.
func (c *client) DropCaches() {
	c.node.Syscall(c.p)
	st := c.st()
	st.attrs.Clear()
	st.dentries.Clear()
}
