package main

import (
	"io/fs"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"waitfree/internal/fsx"
)

// fsOp enumerates the fsx.FS and fsx.File operations the job store uses.
type fsOp int

const (
	opReadFile fsOp = iota
	opCreateTemp
	opWrite
	opSync
	opChmod
	opClose
	opRename
	opRemove
	opMkdirAll
	opReadDir
	opSyncDir
	numOps
)

var opNames = [numOps]string{
	"read_file", "create_temp", "write", "sync", "chmod",
	"close", "rename", "remove", "mkdir_all", "read_dir", "sync_dir",
}

func (op fsOp) isSync() bool { return op == opSync || op == opSyncDir }

// isWrite reports the mutating operations other than syncs: the work of
// rewriting an envelope besides making it durable.
func (op fsOp) isWrite() bool {
	switch op {
	case opCreateTemp, opWrite, opChmod, opClose, opRename, opRemove:
		return true
	}
	return false
}

// fsSnap is a point-in-time copy of countFS's counters.
type fsSnap struct {
	ops, busyNs  [numOps]int64
	bytesWritten int64
	failed       int64
}

func (s fsSnap) sub(o fsSnap) fsSnap {
	for i := range s.ops {
		s.ops[i] -= o.ops[i]
		s.busyNs[i] -= o.busyNs[i]
	}
	s.bytesWritten -= o.bytesWritten
	s.failed -= o.failed
	return s
}

func (s fsSnap) fsyncs() int64 { return s.ops[opSync] + s.ops[opSyncDir] }

func (s fsSnap) busy(pred func(fsOp) bool) time.Duration {
	var ns int64
	for op := fsOp(0); op < numOps; op++ {
		if pred(op) {
			ns += s.busyNs[op]
		}
	}
	return time.Duration(ns)
}

// fsSpan is one traced filesystem call. path is the file operated on
// (the temp file for writes, the destination for renames); from is a
// rename's source. goid ties a directory sync to the rename before it.
type fsSpan struct {
	op         fsOp
	path, from string
	start, end time.Time
	goid       int64
}

// countFS is the benchmark's counting and timing fsx.FS, handed to the
// daemon through server.Options.FS. It always counts; with spans enabled
// it also records every call for the traced run.
type countFS struct {
	inner        fsx.FS
	ops, busyNs  [numOps]atomic.Int64
	bytesWritten atomic.Int64
	failed       atomic.Int64

	tracing atomic.Bool
	mu      sync.Mutex
	spans   []fsSpan
}

func newCountFS() *countFS { return &countFS{inner: fsx.OS{}} }

func (c *countFS) snap() fsSnap {
	var s fsSnap
	for i := range s.ops {
		s.ops[i] = c.ops[i].Load()
		s.busyNs[i] = c.busyNs[i].Load()
	}
	s.bytesWritten = c.bytesWritten.Load()
	s.failed = c.failed.Load()
	return s
}

// startSpans turns span recording on; takeSpans turns it off and returns
// what was recorded.
func (c *countFS) startSpans() { c.tracing.Store(true) }

func (c *countFS) takeSpans() []fsSpan {
	c.tracing.Store(false)
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.spans
	c.spans = nil
	return out
}

func (c *countFS) observe(op fsOp, path, from string, start time.Time, written int, err error) {
	end := time.Now()
	c.ops[op].Add(1)
	c.busyNs[op].Add(int64(end.Sub(start)))
	c.bytesWritten.Add(int64(written))
	if err != nil {
		c.failed.Add(1)
	}
	if c.tracing.Load() {
		sp := fsSpan{op: op, path: path, from: from, start: start, end: end, goid: goid()}
		c.mu.Lock()
		c.spans = append(c.spans, sp)
		c.mu.Unlock()
	}
}

func (c *countFS) ReadFile(name string) ([]byte, error) {
	t := time.Now()
	b, err := c.inner.ReadFile(name)
	c.observe(opReadFile, name, "", t, 0, err)
	return b, err
}

func (c *countFS) CreateTemp(dir, pattern string) (fsx.File, error) {
	t := time.Now()
	f, err := c.inner.CreateTemp(dir, pattern)
	name := ""
	if err == nil {
		name = f.Name()
		f = &countFile{File: f, fs: c}
	}
	c.observe(opCreateTemp, name, "", t, 0, err)
	return f, err
}

func (c *countFS) Rename(oldpath, newpath string) error {
	t := time.Now()
	err := c.inner.Rename(oldpath, newpath)
	c.observe(opRename, newpath, oldpath, t, 0, err)
	return err
}

func (c *countFS) Remove(name string) error {
	t := time.Now()
	err := c.inner.Remove(name)
	c.observe(opRemove, name, "", t, 0, err)
	return err
}

func (c *countFS) MkdirAll(dir string, perm fs.FileMode) error {
	t := time.Now()
	err := c.inner.MkdirAll(dir, perm)
	c.observe(opMkdirAll, dir, "", t, 0, err)
	return err
}

func (c *countFS) ReadDir(name string) ([]fs.DirEntry, error) {
	t := time.Now()
	es, err := c.inner.ReadDir(name)
	c.observe(opReadDir, name, "", t, 0, err)
	return es, err
}

func (c *countFS) SyncDir(dir string) error {
	t := time.Now()
	err := c.inner.SyncDir(dir)
	c.observe(opSyncDir, dir, "", t, 0, err)
	return err
}

type countFile struct {
	fsx.File
	fs *countFS
}

func (f *countFile) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := f.File.Write(p)
	f.fs.observe(opWrite, f.Name(), "", t, n, err)
	return n, err
}

func (f *countFile) WriteAt(p []byte, off int64) (int, error) {
	t := time.Now()
	n, err := f.File.WriteAt(p, off)
	f.fs.observe(opWrite, f.Name(), "", t, n, err)
	return n, err
}

func (f *countFile) Sync() error {
	t := time.Now()
	err := f.File.Sync()
	f.fs.observe(opSync, f.Name(), "", t, 0, err)
	return err
}

func (f *countFile) Chmod(mode fs.FileMode) error {
	t := time.Now()
	err := f.File.Chmod(mode)
	f.fs.observe(opChmod, f.Name(), "", t, 0, err)
	return err
}

func (f *countFile) Close() error {
	t := time.Now()
	err := f.File.Close()
	f.fs.observe(opClose, f.Name(), "", t, 0, err)
	return err
}

// jobSpans attributes traced filesystem calls to job ids through their
// envelope paths: temp-file calls belong to the job their temp file is
// renamed onto, and a directory sync to the job its goroutine renamed
// last. Calls that name no job (the data-dir listing) are dropped.
func jobSpans(spans []fsSpan) map[string][]fsSpan {
	const ext = ".wfjob"
	jobOf := func(path string) string {
		base := filepath.Base(path)
		if !strings.HasSuffix(base, ext) {
			return ""
		}
		return strings.TrimSuffix(base, ext)
	}
	tmpJob := map[string]string{}
	for _, sp := range spans {
		if sp.op == opRename {
			tmpJob[sp.from] = jobOf(sp.path)
		}
	}
	lastRename := map[int64]string{}
	out := map[string][]fsSpan{}
	for _, sp := range spans {
		var id string
		switch sp.op {
		case opRename:
			id = jobOf(sp.path)
			lastRename[sp.goid] = id
		case opSyncDir:
			id = lastRename[sp.goid]
		case opReadFile, opRemove:
			id = jobOf(sp.path)
		default:
			id = tmpJob[sp.path]
		}
		if id != "" {
			out[id] = append(out[id], sp)
		}
	}
	return out
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 42 [running]:"). Only the traced run pays for it.
func goid() int64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id int64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}
