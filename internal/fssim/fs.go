// Package fssim simulates Node's fs module: an in-memory file system
// whose asynchronous operations (readFile, writeFile, stat, readdir,
// unlink, appendFile) complete through the event loop's I/O poll phase —
// the paper's canonical example of external scheduling ("functions to
// read data from a file" in §II-B's I/O phase). Callback and promise
// interfaces are provided, mirroring fs and fs/promises.
package fssim

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"asyncg/internal/eventloop"
	"asyncg/internal/loc"
	"asyncg/internal/promise"
	"asyncg/internal/vm"
)

// Latency is the virtual I/O latency per operation.
const Latency = 300 * time.Microsecond

// Stat describes a file, as delivered to stat callbacks.
type Stat struct {
	Name  string
	Size  int
	Mtime time.Duration // virtual time of last modification
}

// FS is an in-memory file system bound to one event loop.
type FS struct {
	loop   *eventloop.Loop
	files  map[string][]byte
	mtimes map[string]time.Duration
	keys   map[string]uint64 // per-path independence keys (POR)
}

// New creates an empty file system and registers its reset hook: when
// the loop is reset the file system empties itself (contents, mtimes and
// independence keys — key sequences restart with the loop), keeping the
// map storage for the next run.
func New(l *eventloop.Loop) *FS {
	f := &FS{
		loop:   l,
		files:  make(map[string][]byte),
		mtimes: make(map[string]time.Duration),
		keys:   make(map[string]uint64),
	}
	l.OnReset(f.reset)
	return f
}

func (f *FS) reset() {
	clear(f.files)
	clear(f.mtimes)
	clear(f.keys)
}

// ioKey returns the path's independence key, allocating on first use.
// Operations on distinct paths touch disjoint file state, so their
// completion order commutes; operations spanning the namespace
// (Readdir) pass key 0 instead.
func (f *FS) ioKey(path string) uint64 {
	k, ok := f.keys[path]
	if !ok {
		k = f.loop.NextIOKey()
		f.keys[path] = k
	}
	return k
}

// Seed stores a file synchronously — for test and example setup.
func (f *FS) Seed(path string, data []byte) {
	f.files[path] = append([]byte(nil), data...)
	f.mtimes[path] = f.loop.Now()
}

// Exists reports whether the file exists (synchronous test helper).
func (f *FS) Exists(path string) bool {
	_, ok := f.files[path]
	return ok
}

// run schedules op through the I/O phase and delivers its result to the
// registered callback on the nextTick queue, like the network and DB
// substrates do.
func (f *FS) run(at loc.Loc, api string, key uint64, cb *vm.Function, op func() (vm.Value, error)) {
	var seq uint64
	if cb != nil {
		seq = f.loop.NextRegSeq()
		ev := f.loop.BorrowAPIEvent()
		ev.API = api
		ev.Loc = at
		ev.SetOneReg(vm.Registration{Seq: seq, Callback: cb, Phase: string(eventloop.PhaseNextTick), Once: true, Role: "callback"})
		f.loop.EmitAPIEvent(ev)
		f.loop.ReturnAPIEvent(ev)
	}
	ioFn := vm.NewFuncAt("(fs.io)", loc.Internal, func([]vm.Value) vm.Value {
		res, err := op()
		if cb == nil {
			return vm.Undefined
		}
		errVal := vm.Undefined
		if err != nil {
			errVal = err.Error()
			res = vm.Undefined
		}
		if res == nil {
			res = vm.Undefined
		}
		d := f.loop.NewDispatch()
		d.API = api
		d.RegSeq = seq
		f.loop.ScheduleTickJob(cb, []vm.Value{errVal, res}, d)
		return vm.Undefined
	})
	dp := f.loop.ScheduleIOKeyedDispatch(f.loop.Now()+f.loop.PerturbLatency(Latency), key, ioFn, nil)
	dp.API = api
}

// runP is run with a promise result instead of a callback.
func (f *FS) runP(at loc.Loc, api string, key uint64, op func() (vm.Value, error)) *promise.Promise {
	p := promise.New(f.loop, at, nil)
	ioFn := vm.NewFuncAt("(fs.io)", loc.Internal, func([]vm.Value) vm.Value {
		res, err := op()
		if err != nil {
			p.Reject(loc.Internal, err.Error())
			return vm.Undefined
		}
		if res == nil {
			res = vm.Undefined
		}
		p.Resolve(loc.Internal, res)
		return vm.Undefined
	})
	dp := f.loop.ScheduleIOKeyedDispatch(f.loop.Now()+f.loop.PerturbLatency(Latency), key, ioFn, nil)
	dp.API = api
	return p
}

func enoent(path string) error { return fmt.Errorf("ENOENT: no such file %q", path) }

// ReadFile reads a file; cb receives (err, []byte).
func (f *FS) ReadFile(at loc.Loc, path string, cb *vm.Function) {
	f.run(at, "fs.readFile", f.ioKey(path), cb, func() (vm.Value, error) { return f.readSync(path) })
}

// ReadFileP is the fs/promises variant.
func (f *FS) ReadFileP(at loc.Loc, path string) *promise.Promise {
	return f.runP(at, "fs.readFile", f.ioKey(path), func() (vm.Value, error) { return f.readSync(path) })
}

func (f *FS) readSync(path string) (vm.Value, error) {
	data, ok := f.files[path]
	if !ok {
		return nil, enoent(path)
	}
	return append([]byte(nil), data...), nil
}

// WriteFile replaces a file's contents; cb receives (err).
func (f *FS) WriteFile(at loc.Loc, path string, data []byte, cb *vm.Function) {
	buf := append([]byte(nil), data...)
	f.run(at, "fs.writeFile", f.ioKey(path), cb, func() (vm.Value, error) {
		f.files[path] = buf
		f.mtimes[path] = f.loop.Now()
		return vm.Undefined, nil
	})
}

// WriteFileP is the fs/promises variant.
func (f *FS) WriteFileP(at loc.Loc, path string, data []byte) *promise.Promise {
	buf := append([]byte(nil), data...)
	return f.runP(at, "fs.writeFile", f.ioKey(path), func() (vm.Value, error) {
		f.files[path] = buf
		f.mtimes[path] = f.loop.Now()
		return vm.Undefined, nil
	})
}

// AppendFile appends to a file, creating it if absent.
func (f *FS) AppendFile(at loc.Loc, path string, data []byte, cb *vm.Function) {
	buf := append([]byte(nil), data...)
	f.run(at, "fs.appendFile", f.ioKey(path), cb, func() (vm.Value, error) {
		f.files[path] = append(f.files[path], buf...)
		f.mtimes[path] = f.loop.Now()
		return vm.Undefined, nil
	})
}

// Stat delivers (err, Stat).
func (f *FS) Stat(at loc.Loc, path string, cb *vm.Function) {
	f.run(at, "fs.stat", f.ioKey(path), cb, func() (vm.Value, error) {
		data, ok := f.files[path]
		if !ok {
			return nil, enoent(path)
		}
		return Stat{Name: path, Size: len(data), Mtime: f.mtimes[path]}, nil
	})
}

// Unlink removes a file; cb receives (err).
func (f *FS) Unlink(at loc.Loc, path string, cb *vm.Function) {
	f.run(at, "fs.unlink", f.ioKey(path), cb, func() (vm.Value, error) {
		if _, ok := f.files[path]; !ok {
			return nil, enoent(path)
		}
		delete(f.files, path)
		delete(f.mtimes, path)
		return vm.Undefined, nil
	})
}

// Readdir delivers (err, []string) with the names under the prefix
// (treating "/"-separated paths as a flat namespace with directories as
// prefixes).
func (f *FS) Readdir(at loc.Loc, dir string, cb *vm.Function) {
	f.run(at, "fs.readdir", 0, cb, func() (vm.Value, error) {
		prefix := strings.TrimSuffix(dir, "/") + "/"
		seen := make(map[string]bool)
		var names []string
		for path := range f.files {
			if !strings.HasPrefix(path, prefix) {
				continue
			}
			rest := strings.TrimPrefix(path, prefix)
			if idx := strings.IndexByte(rest, '/'); idx >= 0 {
				rest = rest[:idx]
			}
			if !seen[rest] {
				seen[rest] = true
				names = append(names, rest)
			}
		}
		if len(names) == 0 {
			return nil, enoent(dir)
		}
		sort.Strings(names)
		return names, nil
	})
}
