// Package afs models an AFS-style distributed file system (§4.7.3):
// volumes located via a volume location database, per-volume file
// servers, open-to-close semantics and — its distinguishing feature — a
// persistent client cache kept consistent with server callbacks. Cached
// attribute reads are purely local until the server breaks the callback,
// and dropping the OS caches does not empty the AFS cache (it lives on
// the client's disk), which the thesis points out when comparing
// StatNocacheFiles across file systems.
package afs

import (
	"fmt"
	"path"
	"strings"
	"time"

	"dmetabench/internal/cluster"
	"dmetabench/internal/fs"
	"dmetabench/internal/namespace"
	"dmetabench/internal/sim"
	"dmetabench/internal/simnet"
)

// Config holds the tunables of the AFS model.
type Config struct {
	ServersThreads int
	OneWayLatency  time.Duration

	CreateService  time.Duration
	FetchService   time.Duration // FetchStatus
	RemoveService  time.Duration
	MkdirService   time.Duration
	RenameService  time.Duration
	ReaddirService time.Duration

	// CallbackBreakCost is charged at the server per remote cache entry
	// invalidated by a modification.
	CallbackBreakCost time.Duration
	DirIndex          namespace.DirIndex
}

// DefaultConfig approximates the LRZ AFS cell: metadata operations are
// noticeably slower than NFS (AFS was retired partly for this), cached
// reads are very fast.
func DefaultConfig() Config {
	return Config{
		ServersThreads:    2,
		OneWayLatency:     300 * time.Microsecond,
		CreateService:     650 * time.Microsecond,
		FetchService:      120 * time.Microsecond,
		RemoveService:     600 * time.Microsecond,
		MkdirService:      700 * time.Microsecond,
		RenameService:     750 * time.Microsecond,
		ReaddirService:    200 * time.Microsecond,
		CallbackBreakCost: 40 * time.Microsecond,
		DirIndex:          namespace.IndexLinear,
	}
}

// FS is one AFS cell.
type FS struct {
	k   *sim.Kernel
	cfg Config

	servers []*simnet.Server
	volumes map[string]*volume
	conns   map[connKey]*simnet.Conn
	nodes   map[*cluster.Node]*nodeCache
	rpcs    int64
}

type connKey struct {
	node *cluster.Node
	srv  int
}

type volume struct {
	name   string
	server int
	ns     *namespace.Namespace
	locks  map[fs.Ino]*sim.Mutex
	// version increments on every modification of a path, breaking
	// callbacks held by client caches.
	version map[string]int64
}

// nodeCache is the persistent AFS client cache of one node.
type nodeCache struct {
	attrs map[string]cachedAttr
	hits  int64
	miss  int64
}

type cachedAttr struct {
	attr    fs.Attr
	version int64
}

// New creates an AFS cell with the given number of file servers.
func New(k *sim.Kernel, name string, servers int, cfg Config) *FS {
	f := &FS{
		k:       k,
		cfg:     cfg,
		volumes: make(map[string]*volume),
		conns:   make(map[connKey]*simnet.Conn),
		nodes:   make(map[*cluster.Node]*nodeCache),
	}
	for i := 0; i < servers; i++ {
		f.servers = append(f.servers,
			simnet.NewServer(k, fmt.Sprintf("afs%d:%s", i, name), cfg.ServersThreads))
	}
	return f
}

// Name identifies the model.
func (f *FS) Name() string { return "afs" }

// AddVolume creates a volume served by server (round-robin when -1) and
// mounts it as the top-level directory /name.
func (f *FS) AddVolume(name string, server int) *volume {
	if server < 0 {
		server = len(f.volumes) % len(f.servers)
	}
	v := &volume{
		name:    name,
		server:  server,
		ns:      namespace.New(),
		locks:   make(map[fs.Ino]*sim.Mutex),
		version: make(map[string]int64),
	}
	f.volumes[name] = v
	return v
}

// NumVolumes returns the number of mounted volumes.
func (f *FS) NumVolumes() int { return len(f.volumes) }

// RPCCount returns the number of server RPCs.
func (f *FS) RPCCount() int64 { return f.rpcs }

// CacheStats sums cache hits and misses over all nodes.
func (f *FS) CacheStats() (hits, misses int64) {
	for _, nc := range f.nodes {
		hits += nc.hits
		misses += nc.miss
	}
	return
}

// resolve splits an absolute path into volume and in-volume path.
func (f *FS) resolve(op, p string) (*volume, string, error) {
	trimmed := strings.TrimPrefix(path.Clean(p), "/")
	if trimmed == "" || trimmed == "." {
		return nil, "", fs.NewError(op, p, fs.EINVAL)
	}
	comps := strings.SplitN(trimmed, "/", 2)
	v, ok := f.volumes[comps[0]]
	if !ok {
		return nil, "", fs.NewError(op, p, fs.ENOENT)
	}
	sub := "/"
	if len(comps) == 2 {
		sub = "/" + comps[1]
	}
	return v, sub, nil
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

func (f *FS) cache(n *cluster.Node) *nodeCache {
	nc, ok := f.nodes[n]
	if !ok {
		nc = &nodeCache{attrs: make(map[string]cachedAttr)}
		f.nodes[n] = nc
	}
	return nc
}

func (v *volume) dirLock(k *sim.Kernel, ino fs.Ino) *sim.Mutex {
	m, ok := v.locks[ino]
	if !ok {
		m = sim.NewMutex(k, fmt.Sprintf("afsdir:%s:%d", v.name, ino))
		v.locks[ino] = m
	}
	return m
}

// bump invalidates client callbacks on a path after modification.
func (v *volume) bump(sp *sim.Proc, cost time.Duration, paths ...string) {
	for _, p := range paths {
		v.version[p]++
	}
	sp.Sleep(cost)
}

// NewClient binds a client for one process on one node.
func (f *FS) NewClient(node *cluster.Node, p *sim.Proc) fs.Client {
	return &client{fsys: f, node: node, p: p, handles: make(map[fs.Handle]*openFile)}
}

type openFile struct {
	path    string
	written int64
	dirty   bool
}

type client struct {
	fsys    *FS
	node    *cluster.Node
	p       *sim.Proc
	nextFH  fs.Handle
	handles map[fs.Handle]*openFile
	// r is the client's one in-flight RPC, reused (a client issues one
	// synchronous RPC at a time).
	r req
}

// req is one RPC to a volume server; Serve runs it there and writes the
// results back.
type req struct {
	fsys *FS
	op   fs.OpKind
	v    *volume
	// path and other are in-volume paths (other: see namespace.Apply).
	path, other string
	svc         time.Duration
	// written is the byte count a store (OpClose, OpFsync) writes back;
	// only a close pays its transfer.
	written int64

	err  error
	attr fs.Attr
	ents []fs.DirEntry
}

// Serve runs the operation at the volume server.
func (r *req) Serve(sp *sim.Proc) {
	f, v := r.fsys, r.v
	switch r.op {
	case fs.OpStat:
		sp.Sleep(f.cfg.FetchService)
		f.rpcs++
		r.attr, r.err = v.ns.Stat(r.path)
		return
	case fs.OpReadDir:
		r.ents, r.err = v.ns.ReadDir(r.path, sp.Now())
		sp.Sleep(f.cfg.ReaddirService + time.Duration(len(r.ents))*time.Microsecond)
		f.rpcs++
		return
	}
	if dir, lerr := v.ns.Lookup(fs.ParentDir(r.path)); lerr == nil {
		lock := v.dirLock(f.k, dir.Ino)
		lock.Lock(sp)
		defer lock.Unlock()
		sp.Sleep(time.Duration(float64(r.svc) * f.cfg.DirIndex.EntryCost(dir.NumChildren())))
	} else {
		sp.Sleep(r.svc)
	}
	f.rpcs++
	r.err = r.apply(sp)
}

// apply makes a namespace change or stores file data, breaking the
// callbacks of every changed file.
func (r *req) apply(sp *sim.Proc) error {
	v, cost := r.v, r.fsys.cfg.CallbackBreakCost
	switch r.op {
	case fs.OpClose, fs.OpFsync:
		node, err := v.ns.Lookup(r.path)
		if err != nil {
			return err
		}
		if r.op == fs.OpClose {
			sp.Sleep(time.Duration(float64(r.written) / float64(40<<20) * float64(time.Second)))
		}
		v.ns.SetSize(node.Ino, node.Size+r.written, sp.Now())
		v.bump(sp, cost, r.path)
		return nil
	}
	if err := v.ns.Apply(r.op, r.path, r.other, sp.Now()); err != nil {
		return err
	}
	switch r.op {
	case fs.OpCreate, fs.OpUnlink:
		v.bump(sp, cost, r.path)
	case fs.OpRename:
		v.bump(sp, cost, r.path, r.other)
	}
	return nil
}

// modify runs one namespace-changing (or data-storing) RPC against the
// volume server; name labels its errors.
func (c *client) modify(name, p string, r req) error {
	f := c.fsys
	c.node.Syscall(c.p)
	v, sub, err := f.resolve(name, p)
	if err != nil {
		return err
	}
	imutex := c.node.DirLock(fs.ParentDir(p))
	imutex.Lock(c.p)
	defer imutex.Unlock()
	r.v, r.path = v, sub
	return c.call(r, 200, 160).err
}

// call issues r to its volume's server.
func (c *client) call(r req, reqBytes, respBytes int64) *req {
	c.r = r
	c.r.fsys = c.fsys
	c.fsys.conn(c.node, r.v.server).Call(c.p, reqBytes, respBytes, &c.r)
	return &c.r
}

// Create stores the new file on the volume server (open-to-close: the
// server sees it immediately) and installs a callback-backed cache entry.
func (c *client) Create(p string) error {
	if err := c.modify("create", p, req{op: fs.OpCreate, svc: c.fsys.cfg.CreateService}); err != nil {
		return err
	}
	v, sub, _ := c.fsys.resolve("create", p)
	if a, e := v.ns.Stat(sub); e == nil {
		c.fsys.cache(c.node).attrs[p] = cachedAttr{attr: a, version: v.version[sub]}
	}
	return nil
}

// Open fetches status (or uses the callback-valid cache) and returns a
// handle.
func (c *client) Open(p string) (fs.Handle, error) {
	if _, err := c.Stat(p); err != nil {
		return 0, err
	}
	c.nextFH++
	c.handles[c.nextFH] = &openFile{path: p}
	return c.nextFH, nil
}

// Close implements open-to-close semantics: dirty data is stored back to
// the volume server before close returns.
func (c *client) Close(h fs.Handle) error {
	c.node.Syscall(c.p)
	of, ok := c.handles[h]
	if !ok {
		return fs.NewError("close", "", fs.EBADF)
	}
	delete(c.handles, h)
	if !of.dirty {
		return nil
	}
	return c.modify("store", of.path, req{op: fs.OpClose, svc: c.fsys.cfg.CreateService / 2, written: of.written})
}

// Write buffers into the local AFS cache until close.
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

// Fsync stores dirty data like close but keeps the handle.
func (c *client) Fsync(h fs.Handle) error {
	c.node.Syscall(c.p)
	of, ok := c.handles[h]
	if !ok {
		return fs.NewError("fsync", "", fs.EBADF)
	}
	if !of.dirty {
		return nil
	}
	of.dirty = false
	return c.modify("store", of.path, req{op: fs.OpFsync, svc: c.fsys.cfg.CreateService / 2, written: of.written})
}

// Mkdir creates a directory on the volume server.
func (c *client) Mkdir(p string) error {
	return c.modify("mkdir", p, req{op: fs.OpMkdir, svc: c.fsys.cfg.MkdirService})
}

// Rmdir removes a directory.
func (c *client) Rmdir(p string) error {
	return c.modify("rmdir", p, req{op: fs.OpRmdir, svc: c.fsys.cfg.RemoveService})
}

// Unlink removes a file and breaks callbacks.
func (c *client) Unlink(p string) error {
	err := c.modify("unlink", p, req{op: fs.OpUnlink, svc: c.fsys.cfg.RemoveService})
	if err == nil {
		delete(c.fsys.cache(c.node).attrs, p)
	}
	return err
}

// Rename moves within one volume; cross-volume renames fail with EXDEV
// exactly like the sub-namespace case discussed in §2.6.3.
func (c *client) Rename(oldPath, newPath string) error {
	f := c.fsys
	vOld, _, err := f.resolve("rename", oldPath)
	if err != nil {
		return err
	}
	vNew, subNew, err := f.resolve("rename", newPath)
	if err != nil {
		return err
	}
	if vOld != vNew {
		return fs.NewError("rename", newPath, fs.EXDEV)
	}
	return c.modify("rename", oldPath, req{op: fs.OpRename, other: subNew, svc: f.cfg.RenameService})
}

// Link creates a hardlink within one volume.
func (c *client) Link(oldPath, newPath string) error {
	f := c.fsys
	vOld, subOld, err := f.resolve("link", oldPath)
	if err != nil {
		return err
	}
	vNew, _, err := f.resolve("link", newPath)
	if err != nil {
		return err
	}
	if vOld != vNew {
		return fs.NewError("link", newPath, fs.EXDEV)
	}
	return c.modify("link", newPath, req{op: fs.OpLink, other: subOld, svc: f.cfg.CreateService})
}

// Symlink creates a symbolic link on the volume server. Unlike hardlinks
// the target is a free-form path, so no EXDEV applies.
func (c *client) Symlink(target, linkPath string) error {
	return c.modify("symlink", linkPath, req{op: fs.OpSymlink, other: target, svc: c.fsys.cfg.CreateService})
}

// Stat serves from the persistent cache while the callback is intact;
// otherwise it fetches status from the volume server.
func (c *client) Stat(p string) (fs.Attr, error) {
	f := c.fsys
	c.node.Syscall(c.p)
	v, sub, err := f.resolve("stat", p)
	if err != nil {
		return fs.Attr{}, err
	}
	nc := f.cache(c.node)
	if e, ok := nc.attrs[p]; ok && e.version == v.version[sub] {
		nc.hits++
		return e.attr, nil
	}
	nc.miss++
	r := c.call(req{op: fs.OpStat, v: v, path: sub}, 150, 170)
	if r.err != nil {
		return fs.Attr{}, r.err
	}
	nc.attrs[p] = cachedAttr{attr: r.attr, version: v.version[sub]}
	return r.attr, nil
}

// ReadDir fetches the directory from the volume server.
func (c *client) ReadDir(p string) ([]fs.DirEntry, error) {
	f := c.fsys
	c.node.Syscall(c.p)
	v, sub, err := f.resolve("readdir", p)
	if err != nil {
		return nil, err
	}
	r := c.call(req{op: fs.OpReadDir, v: v, path: sub}, 150, 400)
	ents := r.ents
	r.ents = nil // the caller owns the slice
	return ents, r.err
}

// DropCaches is a no-op: the AFS cache is persistent on the client's
// local disk and survives the Linux drop_caches mechanism.
func (c *client) DropCaches() {
	c.node.Syscall(c.p)
}
