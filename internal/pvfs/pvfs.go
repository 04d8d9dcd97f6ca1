// Package pvfs models a parallel file system in the style of PVFS2
// (§2.5.3): multiple combined metadata/data servers with the namespace
// distributed across them by handle hashing, fully synchronous operations
// and **no client-side caching at all** — the design §2.7.2 credits with
// trivial crash recovery ("there is no cached state on the client") and
// §2.6.1 with its nonconflicting-write semantics.
//
// The practical consequences the benchmark exposes: StatFiles and
// StatNocacheFiles perform identically (nothing is cached, so there is
// nothing to drop), every operation pays a network round trip, and
// metadata throughput scales with the number of servers because
// directories hash across them.
package pvfs

import (
	"fmt"
	"hash/fnv"
	"path"
	"time"

	"dmetabench/internal/cluster"
	"dmetabench/internal/fs"
	"dmetabench/internal/namespace"
	"dmetabench/internal/sim"
	"dmetabench/internal/simnet"
)

// Config holds the tunables of the PVFS2 model.
type Config struct {
	Servers       int
	ServerThreads int
	OneWayLatency time.Duration

	CreateService     time.Duration
	GetattrService    time.Duration
	RemoveService     time.Duration
	MkdirService      time.Duration
	RenameService     time.Duration
	ReaddirService    time.Duration
	WriteServicePerKB time.Duration
	DirIndex          namespace.DirIndex
}

// DefaultConfig approximates a small PVFS2 installation on gigabit
// ethernet: cheap servers, everything synchronous.
func DefaultConfig() Config {
	return Config{
		Servers:           4,
		ServerThreads:     2,
		OneWayLatency:     250 * time.Microsecond,
		CreateService:     300 * time.Microsecond,
		GetattrService:    80 * time.Microsecond,
		RemoveService:     280 * time.Microsecond,
		MkdirService:      320 * time.Microsecond,
		RenameService:     360 * time.Microsecond,
		ReaddirService:    150 * time.Microsecond,
		WriteServicePerKB: 35 * time.Microsecond,
		DirIndex:          namespace.IndexBTree,
	}
}

// FS is one PVFS2 file system.
type FS struct {
	k   *sim.Kernel
	cfg Config

	servers  []*simnet.Server
	ns       *namespace.Namespace
	conns    map[connKey]*simnet.Conn
	dirLocks map[fs.Ino]*sim.Mutex
	rpcs     int64
	// metafile is the body of a create's second round trip.
	metafile metafileCreate
}

// metafileCreate is the metadata-object create at a file's own server,
// the second round trip of a PVFS2 create (the dirent + metafile split).
type metafileCreate struct{ f *FS }

// Serve charges the object create.
func (m *metafileCreate) Serve(sp *sim.Proc) {
	sp.Sleep(m.f.cfg.CreateService / 2)
	m.f.rpcs++
}

type connKey struct {
	node *cluster.Node
	srv  int
}

// New creates a PVFS2 file system with cfg.Servers servers.
func New(k *sim.Kernel, name string, cfg Config) *FS {
	if cfg.Servers < 1 {
		cfg.Servers = 1
	}
	f := &FS{
		k:        k,
		cfg:      cfg,
		ns:       namespace.New(),
		conns:    make(map[connKey]*simnet.Conn),
		dirLocks: make(map[fs.Ino]*sim.Mutex),
	}
	f.metafile.f = f
	for i := 0; i < cfg.Servers; i++ {
		f.servers = append(f.servers,
			simnet.NewServer(k, fmt.Sprintf("pvfs%d:%s", i, name), cfg.ServerThreads))
	}
	return f
}

// Name identifies the model.
func (f *FS) Name() string { return "pvfs" }

// Namespace exposes the (logically distributed) namespace.
func (f *FS) Namespace() *namespace.Namespace { return f.ns }

// RPCCount returns the number of server RPCs.
func (f *FS) RPCCount() int64 { return f.rpcs }

// serverFor hashes a path to its owning server (handle distribution).
func (f *FS) serverFor(p string) int {
	h := fnv.New32a()
	h.Write([]byte(path.Clean(p)))
	return int(h.Sum32()) % len(f.servers)
}

func (f *FS) conn(n *cluster.Node, srv int) *simnet.Conn {
	key := connKey{n, srv}
	c, ok := f.conns[key]
	if !ok {
		c = simnet.NewConn(f.k, f.servers[srv], f.cfg.OneWayLatency, 0)
		f.conns[key] = c
	}
	return c
}

func (f *FS) dirLock(ino fs.Ino) *sim.Mutex {
	m, ok := f.dirLocks[ino]
	if !ok {
		m = sim.NewMutex(f.k, fmt.Sprintf("pvfsdir:%d", ino))
		f.dirLocks[ino] = m
	}
	return m
}

// NewClient binds a client for one process on one node. PVFS2 clients
// hold no state beyond open handles.
func (f *FS) NewClient(node *cluster.Node, p *sim.Proc) fs.Client {
	return &client{fsys: f, node: node, p: p, handles: make(map[fs.Handle]string)}
}

type client struct {
	fsys    *FS
	node    *cluster.Node
	p       *sim.Proc
	nextFH  fs.Handle
	handles map[fs.Handle]string
	// r is the client's one in-flight RPC, reused (a client issues one
	// synchronous RPC at a time).
	r req
}

// req is one PVFS2 server operation; Serve runs it at the server and
// writes the results back.
type req struct {
	fsys        *FS
	op          fs.OpKind
	path, other string // other: see namespace.Apply
	svc         time.Duration
	n           int64 // bytes written (OpWrite)

	err  error
	attr fs.Attr
	ents []fs.DirEntry
}

// Serve runs the operation at its server.
func (r *req) Serve(sp *sim.Proc) {
	f := r.fsys
	switch r.op {
	case fs.OpStat:
		sp.Sleep(f.cfg.GetattrService)
		f.rpcs++
		r.attr, r.err = f.ns.Stat(r.path)
	case fs.OpReadDir:
		r.ents, r.err = f.ns.ReadDir(r.path, sp.Now())
		sp.Sleep(f.cfg.ReaddirService + time.Duration(len(r.ents))*time.Microsecond)
		f.rpcs++
	case fs.OpWrite:
		sp.Sleep(time.Duration(float64(f.cfg.WriteServicePerKB) * float64(r.n) / 1024))
		f.rpcs++
		node, lerr := f.ns.Lookup(r.path)
		if lerr != nil {
			r.err = lerr
			return
		}
		r.err = f.ns.SetSize(node.Ino, node.Size+r.n, sp.Now())
	default:
		// A namespace change, at the server owning the parent directory,
		// with directory-size scaled service time.
		if dir, lerr := f.ns.Lookup(fs.ParentDir(r.path)); lerr == nil {
			lock := f.dirLock(dir.Ino)
			lock.Lock(sp)
			defer lock.Unlock()
			sp.Sleep(time.Duration(float64(r.svc) * f.cfg.DirIndex.EntryCost(dir.NumChildren())))
		} else {
			sp.Sleep(r.svc)
		}
		f.rpcs++
		r.err = f.ns.Apply(r.op, r.path, r.other, sp.Now())
	}
}

// call issues op on p (writing n bytes) to p's server.
func (c *client) call(op fs.OpKind, p string, n, reqBytes, respBytes int64) *req {
	f := c.fsys
	c.r = req{fsys: f, op: op, path: p, n: n}
	f.conn(c.node, f.serverFor(p)).Call(c.p, reqBytes, respBytes, &c.r)
	return &c.r
}

// dirOp runs a namespace-changing operation at the server owning the
// parent directory, with directory-size scaled service time.
func (c *client) dirOp(op fs.OpKind, p, other string, svc time.Duration) error {
	f := c.fsys
	c.node.Syscall(c.p)
	c.r = req{fsys: f, op: op, path: p, other: other, svc: svc}
	f.conn(c.node, f.serverFor(fs.ParentDir(p))).Call(c.p, 180, 150, &c.r)
	return c.r.err
}

// Create makes a file: a directory-server operation plus a metadata
// object create at the file's own server (two round trips, like the
// dirent + metafile split in PVFS2).
func (c *client) Create(p string) error {
	if err := c.dirOp(fs.OpCreate, p, "", c.fsys.cfg.CreateService); err != nil {
		return err
	}
	c.fsys.conn(c.node, c.fsys.serverFor(p)).Call(c.p, 150, 150, &c.fsys.metafile)
	return nil
}

// Open verifies existence at the server (no client cache to consult).
func (c *client) Open(p string) (fs.Handle, error) {
	if _, err := c.Stat(p); err != nil {
		return 0, err
	}
	c.nextFH++
	c.handles[c.nextFH] = p
	return c.nextFH, nil
}

// Close discards the handle (no cached state to flush).
func (c *client) Close(h fs.Handle) error {
	c.node.Syscall(c.p)
	if _, ok := c.handles[h]; !ok {
		return fs.NewError("close", "", fs.EBADF)
	}
	delete(c.handles, h)
	return nil
}

// Write is synchronous to the file's server: no client caching, so the
// data (and size update) are on the server when the call returns.
func (c *client) Write(h fs.Handle, n int64) error {
	c.node.Syscall(c.p)
	p, ok := c.handles[h]
	if !ok {
		return fs.NewError("write", "", fs.EBADF)
	}
	return c.call(fs.OpWrite, p, n, 150+n, 150).err
}

// Fsync is a no-op: every write was already synchronous.
func (c *client) Fsync(h fs.Handle) error {
	c.node.Syscall(c.p)
	if _, ok := c.handles[h]; !ok {
		return fs.NewError("fsync", "", fs.EBADF)
	}
	return nil
}

// Mkdir creates a directory at the parent's server.
func (c *client) Mkdir(p string) error {
	return c.dirOp(fs.OpMkdir, p, "", c.fsys.cfg.MkdirService)
}

// Rmdir removes a directory.
func (c *client) Rmdir(p string) error {
	return c.dirOp(fs.OpRmdir, p, "", c.fsys.cfg.RemoveService)
}

// Unlink removes a file.
func (c *client) Unlink(p string) error {
	return c.dirOp(fs.OpUnlink, p, "", c.fsys.cfg.RemoveService)
}

// Rename moves an entry (atomic at the directory server; the thesis
// notes PVFS2 serializes this through the owning server).
func (c *client) Rename(oldPath, newPath string) error {
	return c.dirOp(fs.OpRename, oldPath, newPath, c.fsys.cfg.RenameService)
}

// Link creates a hardlink.
func (c *client) Link(oldPath, newPath string) error {
	return c.dirOp(fs.OpLink, newPath, oldPath, c.fsys.cfg.CreateService)
}

// Symlink creates a symbolic link.
func (c *client) Symlink(target, linkPath string) error {
	return c.dirOp(fs.OpSymlink, linkPath, target, c.fsys.cfg.CreateService)
}

// Stat always asks the file's server: PVFS2 clients cache nothing.
func (c *client) Stat(p string) (fs.Attr, error) {
	c.node.Syscall(c.p)
	r := c.call(fs.OpStat, p, 0, 150, 170)
	return r.attr, r.err
}

// ReadDir lists a directory at its server.
func (c *client) ReadDir(p string) ([]fs.DirEntry, error) {
	c.node.Syscall(c.p)
	r := c.call(fs.OpReadDir, p, 0, 150, 300)
	ents := r.ents
	r.ents = nil // the caller owns the slice
	return ents, r.err
}

// DropCaches is trivially a no-op: there is no client cache.
func (c *client) DropCaches() {
	c.node.Syscall(c.p)
}
