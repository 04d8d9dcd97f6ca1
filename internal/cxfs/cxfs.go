// Package cxfs models a SAN file system with central metadata management
// in the style of CXFS on the HLRB II (§4.1.3, §4.5.3): clients reach
// storage directly over a low-latency SAN, but every metadata operation
// is delegated to a single active metadata server. Inside one (large SMP)
// client node, the kernel's CXFS client layer serializes metadata
// operations on a per-node token — the reason file creation on CXFS does
// not scale with intra-node process counts, unlike NFS.
package cxfs

import (
	"fmt"
	"time"

	"dmetabench/internal/clientcache"
	"dmetabench/internal/cluster"
	"dmetabench/internal/fs"
	"dmetabench/internal/namespace"
	"dmetabench/internal/sim"
	"dmetabench/internal/simnet"
)

// Config holds the tunables of the CXFS model.
type Config struct {
	MDSThreads    int
	OneWayLatency time.Duration // SAN/private network latency

	CreateService  time.Duration
	GetattrService time.Duration
	RemoveService  time.Duration
	MkdirService   time.Duration
	RenameService  time.Duration
	ReaddirService time.Duration

	AttrTTL  time.Duration
	DirIndex namespace.DirIndex
	// TokenSerialization: when true (the default, matching observed CXFS
	// behaviour) all metadata operations of one node are serialized on
	// the client token.
	TokenSerialization bool
}

// DefaultConfig approximates the HLRB II CXFS setup.
func DefaultConfig() Config {
	return Config{
		MDSThreads:         2,
		OneWayLatency:      60 * time.Microsecond,
		CreateService:      260 * time.Microsecond,
		GetattrService:     60 * time.Microsecond,
		RemoveService:      240 * time.Microsecond,
		MkdirService:       300 * time.Microsecond,
		RenameService:      320 * time.Microsecond,
		ReaddirService:     150 * time.Microsecond,
		AttrTTL:            5 * time.Second,
		DirIndex:           namespace.IndexBTree,
		TokenSerialization: true,
	}
}

// FS is one CXFS file system.
type FS struct {
	k   *sim.Kernel
	cfg Config

	mds      *simnet.Server
	ns       *namespace.Namespace
	conns    map[*cluster.Node]*simnet.Conn
	tokens   map[*cluster.Node]*sim.Mutex
	attrs    map[*cluster.Node]*clientcache.AttrCache
	dirLocks map[fs.Ino]*sim.Mutex
	rpcs     int64
}

// New creates a CXFS instance.
func New(k *sim.Kernel, name string, cfg Config) *FS {
	return &FS{
		k:        k,
		cfg:      cfg,
		mds:      simnet.NewServer(k, "cxfs-mds:"+name, cfg.MDSThreads),
		ns:       namespace.New(),
		conns:    make(map[*cluster.Node]*simnet.Conn),
		tokens:   make(map[*cluster.Node]*sim.Mutex),
		attrs:    make(map[*cluster.Node]*clientcache.AttrCache),
		dirLocks: make(map[fs.Ino]*sim.Mutex),
	}
}

// Name identifies the model.
func (f *FS) Name() string { return "cxfs" }

// Namespace exposes the metadata server's namespace.
func (f *FS) Namespace() *namespace.Namespace { return f.ns }

// RPCCount returns the number of metadata RPCs served.
func (f *FS) RPCCount() int64 { return f.rpcs }

func (f *FS) conn(n *cluster.Node) *simnet.Conn {
	c, ok := f.conns[n]
	if !ok {
		c = simnet.NewConn(f.k, f.mds, f.cfg.OneWayLatency, 0)
		f.conns[n] = c
	}
	return c
}

func (f *FS) token(n *cluster.Node) *sim.Mutex {
	m, ok := f.tokens[n]
	if !ok {
		m = sim.NewMutex(f.k, "cxfstoken:"+n.Name)
		f.tokens[n] = m
	}
	return m
}

func (f *FS) attrCache(n *cluster.Node) *clientcache.AttrCache {
	c, ok := f.attrs[n]
	if !ok {
		c = clientcache.NewAttrCache(f.cfg.AttrTTL, f.k.Now)
		f.attrs[n] = c
	}
	return c
}

func (f *FS) dirLock(ino fs.Ino) *sim.Mutex {
	m, ok := f.dirLocks[ino]
	if !ok {
		m = sim.NewMutex(f.k, fmt.Sprintf("cxfsdir:%d", ino))
		f.dirLocks[ino] = m
	}
	return m
}

// NewClient binds a client for one process on one node.
func (f *FS) NewClient(node *cluster.Node, p *sim.Proc) fs.Client {
	return &client{fsys: f, node: node, p: p, handles: make(map[fs.Handle]string)}
}

type client struct {
	fsys    *FS
	node    *cluster.Node
	p       *sim.Proc
	nextFH  fs.Handle
	handles map[fs.Handle]string
	// r is the client's one in-flight metadata RPC, reused (a client
	// issues one synchronous RPC at a time).
	r req
}

// req is one delegated metadata operation; Serve runs it at the MDS and
// writes the results back.
type req struct {
	fsys        *FS
	op          fs.OpKind
	path, other string // other: see namespace.Apply
	svc         time.Duration

	err  error
	attr fs.Attr
	ents []fs.DirEntry
}

// Serve charges the operation's service time — scaled by the parent
// directory's size, under its lock, for namespace changes — and runs it.
func (r *req) Serve(sp *sim.Proc) {
	f := r.fsys
	switch r.op {
	case fs.OpStat, fs.OpReadDir:
		sp.Sleep(r.svc)
	default:
		if dir, lerr := f.ns.Lookup(fs.ParentDir(r.path)); lerr == nil {
			lock := f.dirLock(dir.Ino)
			lock.Lock(sp)
			defer lock.Unlock()
			sp.Sleep(time.Duration(float64(r.svc) * f.cfg.DirIndex.EntryCost(dir.NumChildren())))
		} else {
			sp.Sleep(r.svc)
		}
	}
	f.rpcs++
	switch r.op {
	case fs.OpStat:
		r.attr, r.err = f.ns.Stat(r.path)
	case fs.OpReadDir:
		r.ents, r.err = f.ns.ReadDir(r.path, sp.Now())
		if r.err == nil {
			sp.Sleep(time.Duration(len(r.ents)) * time.Microsecond)
		}
	default:
		r.err = f.ns.Apply(r.op, r.path, r.other, sp.Now())
	}
}

// metaOp runs one delegated metadata operation: per-node token, RPC to
// the central MDS, directory-size scaled service, namespace change.
func (c *client) metaOp(op fs.OpKind, p, other string, svc time.Duration) *req {
	f := c.fsys
	c.node.Syscall(c.p)
	if f.cfg.TokenSerialization {
		tok := f.token(c.node)
		tok.Lock(c.p)
		defer tok.Unlock()
	}
	c.r = req{fsys: f, op: op, path: p, other: other, svc: svc}
	f.conn(c.node).Call(c.p, 180, 150, &c.r)
	return &c.r
}

// Create delegates the create to the metadata server.
func (c *client) Create(p string) error {
	err := c.metaOp(fs.OpCreate, p, "", c.fsys.cfg.CreateService).err
	if err == nil {
		if a, e := c.fsys.ns.Stat(p); e == nil {
			c.fsys.attrCache(c.node).Put(p, a)
		}
	}
	return err
}

// Open resolves the path via the MDS (or cache) and returns a handle.
func (c *client) Open(p string) (fs.Handle, error) {
	if _, err := c.Stat(p); err != nil {
		return 0, err
	}
	c.nextFH++
	c.handles[c.nextFH] = p
	return c.nextFH, nil
}

// Close releases the handle; data was written directly to the SAN.
func (c *client) Close(h fs.Handle) error {
	c.node.Syscall(c.p)
	if _, ok := c.handles[h]; !ok {
		return fs.NewError("close", "", fs.EBADF)
	}
	delete(c.handles, h)
	return nil
}

// Write goes directly to the SAN storage: cheap and fully parallel (the
// SAN advantage); only the size update involves the MDS lazily.
func (c *client) Write(h fs.Handle, n int64) error {
	c.node.Syscall(c.p)
	p, ok := c.handles[h]
	if !ok {
		return fs.NewError("write", "", fs.EBADF)
	}
	c.p.Sleep(time.Duration(float64(n) / float64(200<<20) * float64(time.Second)))
	if node, err := c.fsys.ns.Lookup(p); err == nil {
		c.fsys.ns.SetSize(node.Ino, node.Size+n, c.p.Now())
	}
	return nil
}

// Fsync is a SAN flush.
func (c *client) Fsync(h fs.Handle) error {
	c.node.Syscall(c.p)
	if _, ok := c.handles[h]; !ok {
		return fs.NewError("fsync", "", fs.EBADF)
	}
	c.p.Sleep(100 * time.Microsecond)
	return nil
}

// Mkdir delegates to the MDS.
func (c *client) Mkdir(p string) error {
	return c.metaOp(fs.OpMkdir, p, "", c.fsys.cfg.MkdirService).err
}

// Rmdir delegates to the MDS.
func (c *client) Rmdir(p string) error {
	return c.metaOp(fs.OpRmdir, p, "", c.fsys.cfg.RemoveService).err
}

// Unlink delegates to the MDS.
func (c *client) Unlink(p string) error {
	err := c.metaOp(fs.OpUnlink, p, "", c.fsys.cfg.RemoveService).err
	if err == nil {
		c.fsys.attrCache(c.node).Invalidate(p)
	}
	return err
}

// Rename delegates to the MDS.
func (c *client) Rename(oldPath, newPath string) error {
	err := c.metaOp(fs.OpRename, oldPath, newPath, c.fsys.cfg.RenameService).err
	if err == nil {
		cache := c.fsys.attrCache(c.node)
		cache.Invalidate(oldPath)
		cache.Invalidate(newPath)
	}
	return err
}

// Link delegates to the MDS.
func (c *client) Link(oldPath, newPath string) error {
	return c.metaOp(fs.OpLink, newPath, oldPath, c.fsys.cfg.CreateService).err
}

// Symlink delegates to the MDS.
func (c *client) Symlink(target, linkPath string) error {
	return c.metaOp(fs.OpSymlink, linkPath, target, c.fsys.cfg.CreateService).err
}

// Stat serves from the node cache or delegates to the MDS.
func (c *client) Stat(p string) (fs.Attr, error) {
	c.node.Syscall(c.p)
	cache := c.fsys.attrCache(c.node)
	if a, ok := cache.Get(p); ok {
		return a, nil
	}
	r := c.metaOp(fs.OpStat, p, "", c.fsys.cfg.GetattrService)
	if r.err != nil {
		return fs.Attr{}, r.err
	}
	cache.Put(p, r.attr)
	return r.attr, nil
}

// ReadDir delegates to the MDS.
func (c *client) ReadDir(p string) ([]fs.DirEntry, error) {
	r := c.metaOp(fs.OpReadDir, p, "", c.fsys.cfg.ReaddirService)
	ents := r.ents
	r.ents = nil // the caller owns the slice
	return ents, r.err
}

// DropCaches clears the node's attribute cache.
func (c *client) DropCaches() {
	c.node.Syscall(c.p)
	c.fsys.attrCache(c.node).Clear()
}
