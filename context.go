package asyncg

import (
	"time"

	"asyncg/internal/eventloop"
	"asyncg/internal/events"
	"asyncg/internal/fssim"
	"asyncg/internal/httpsim"
	"asyncg/internal/loc"
	"asyncg/internal/mongosim"
	"asyncg/internal/netio"
	"asyncg/internal/promise"
	"asyncg/internal/state"
	"asyncg/internal/vm"
)

// Re-exported runtime types, so programs written against the facade
// rarely need the internal packages.
type (
	// Function is a first-class callback value (create with F).
	Function = vm.Function
	// Emitter is a Node-style event emitter.
	Emitter = events.Emitter
	// Promise is an ECMAScript-style promise.
	Promise = promise.Promise
	// Awaiter suspends async-function bodies on promises.
	Awaiter = promise.Awaiter
	// Server is a simulated HTTP server.
	Server = httpsim.Server
	// IncomingMessage is a received HTTP request or response.
	IncomingMessage = httpsim.IncomingMessage
	// ServerResponse writes an HTTP response.
	ServerResponse = httpsim.ServerResponse
	// RequestOptions parameterizes an outgoing HTTP request.
	RequestOptions = httpsim.RequestOptions
	// DB is the simulated MongoDB instance.
	DB = mongosim.DB
	// Document is one stored DB record.
	Document = mongosim.Document
	// Cell is a shared variable observable by the race detector.
	Cell = state.Cell
)

// Context is the runtime API surface handed to programs: the simulated
// equivalents of the Node.js globals (process.nextTick, timers), the
// events/promise modules, and the net/http/db libraries. Every method
// captures its caller's source location for the Async Graph.
type Context struct {
	loop *eventloop.Loop
	net  *netio.Network
	db   *mongosim.DB
	fs   *fssim.FS
}

// Loop exposes the underlying event loop.
func (c *Context) Loop() *eventloop.Loop { return c.loop }

// Now returns the current virtual time.
func (c *Context) Now() time.Duration { return c.loop.Now() }

// Work simulates synchronous computation taking d of virtual time.
func (c *Context) Work(d time.Duration) { c.loop.Work(d) }

// Call synchronously invokes a function value as a nested call (probes
// observe it), returning its result. A thrown simulated exception
// propagates as in JavaScript.
func (c *Context) Call(fn *Function, args ...Value) Value {
	ret, thrown := c.loop.Invoke(fn, args, nil)
	if thrown != nil {
		panic(thrown)
	}
	return ret
}

// --- Scheduling (self-scheduling APIs, §II-A) ---

// NextTick schedules fn on the highest-priority microtask queue.
func (c *Context) NextTick(fn *Function, args ...Value) {
	c.loop.NextTick(loc.Caller(0), fn, args...)
}

// QueueMicrotask schedules fn on the promise-job microtask queue
// (lower priority than NextTick).
func (c *Context) QueueMicrotask(fn *Function, args ...Value) {
	c.loop.QueueMicrotask(loc.Caller(0), fn, args...)
}

// SetTimeout schedules fn once after delay; returns the timer id.
func (c *Context) SetTimeout(fn *Function, delay time.Duration, args ...Value) uint64 {
	return c.loop.SetTimeout(loc.Caller(0), fn, delay, args...)
}

// SetInterval schedules fn every delay; returns the timer id.
func (c *Context) SetInterval(fn *Function, delay time.Duration, args ...Value) uint64 {
	return c.loop.SetInterval(loc.Caller(0), fn, delay, args...)
}

// SetImmediate schedules fn for the check phase; returns the id.
func (c *Context) SetImmediate(fn *Function, args ...Value) uint64 {
	return c.loop.SetImmediate(loc.Caller(0), fn, args...)
}

// ClearTimeout cancels a pending timeout.
func (c *Context) ClearTimeout(id uint64) { c.loop.ClearTimeout(loc.Caller(0), id) }

// ClearInterval cancels a repeating timer.
func (c *Context) ClearInterval(id uint64) { c.loop.ClearInterval(loc.Caller(0), id) }

// ClearImmediate cancels a pending immediate.
func (c *Context) ClearImmediate(id uint64) { c.loop.ClearImmediate(loc.Caller(0), id) }

// --- Emitters ---

// NewEmitter creates an event emitter with a diagnostic name.
func (c *Context) NewEmitter(name string) *Emitter {
	return events.New(c.loop, name, loc.Caller(0))
}

// On registers a listener (wrapper capturing the user call site).
func (c *Context) On(e *Emitter, event string, fn *Function) {
	e.On(loc.Caller(0), event, fn)
}

// Once registers a once-listener.
func (c *Context) Once(e *Emitter, event string, fn *Function) {
	e.Once(loc.Caller(0), event, fn)
}

// Emit emits an event.
func (c *Context) Emit(e *Emitter, event string, args ...Value) bool {
	return e.Emit(loc.Caller(0), event, args...)
}

// RemoveListener removes a listener.
func (c *Context) RemoveListener(e *Emitter, event string, fn *Function) {
	e.RemoveListener(loc.Caller(0), event, fn)
}

// OnceEvent returns a promise that fulfills with the event's first
// argument the next time the emitter emits it — Node's events.once()
// idiom bridging the emitter and promise worlds.
func (c *Context) OnceEvent(e *Emitter, event string) *Promise {
	at := loc.Caller(0)
	p := promise.New(c.loop, at, nil)
	e.Once(at, event, vm.NewFuncAt("(events.once)", loc.Internal,
		func(args []Value) Value {
			p.Resolve(loc.Internal, vm.Arg(args, 0))
			return Undefined
		}))
	return p
}

// --- Promises ---

// NewPromise creates a promise, invoking executor synchronously with the
// promise as its argument (as the Promise constructor does).
func (c *Context) NewPromise(executor *Function) *Promise {
	return promise.New(c.loop, loc.Caller(0), executor)
}

// Resolve creates an already-fulfilled promise (Promise.resolve).
func (c *Context) Resolve(v Value) *Promise {
	return promise.Resolved(c.loop, loc.Caller(0), v)
}

// Reject creates an already-rejected promise (Promise.reject).
func (c *Context) Reject(reason Value) *Promise {
	return promise.RejectedP(c.loop, loc.Caller(0), reason)
}

// Then chains handlers onto p (wrapper capturing the user call site).
func (c *Context) Then(p *Promise, onFulfilled, onRejected *Function) *Promise {
	return p.Then(loc.Caller(0), onFulfilled, onRejected)
}

// Catch chains a rejection handler onto p.
func (c *Context) Catch(p *Promise, onRejected *Function) *Promise {
	return p.Catch(loc.Caller(0), onRejected)
}

// All is Promise.all.
func (c *Context) All(ps ...*Promise) *Promise {
	return promise.All(c.loop, loc.Caller(0), ps...)
}

// Race is Promise.race.
func (c *Context) Race(ps ...*Promise) *Promise {
	return promise.Race(c.loop, loc.Caller(0), ps...)
}

// AllSettled is Promise.allSettled.
func (c *Context) AllSettled(ps ...*Promise) *Promise {
	return promise.AllSettled(c.loop, loc.Caller(0), ps...)
}

// Any is Promise.any.
func (c *Context) Any(ps ...*Promise) *Promise {
	return promise.Any(c.loop, loc.Caller(0), ps...)
}

// Async invokes an async function: body starts synchronously and may
// suspend with aw.Await; the returned promise settles with its result.
func (c *Context) Async(name string, body func(aw *Awaiter) Value) *Promise {
	return promise.Go(c.loop, loc.Caller(0), name, body)
}

// Await suspends the given async body on p (wrapper capturing the call
// site).
func (c *Context) Await(aw *Awaiter, p *Promise) Value {
	return aw.Await(loc.Caller(0), p)
}

// --- Network / HTTP / DB substrates ---

// Net returns the session's simulated network, creating it on first use.
func (c *Context) Net() *netio.Network {
	if c.net == nil {
		c.net = netio.New(c.loop, netio.Options{})
	}
	return c.net
}

// CreateServer creates an HTTP server whose handler receives
// (req *IncomingMessage, res *ServerResponse).
func (c *Context) CreateServer(handler *Function) *Server {
	return httpsim.CreateServer(c.Net(), loc.Caller(0), handler)
}

// ListenHTTP binds an HTTP server to a port (wrapper capturing the call
// site).
func (c *Context) ListenHTTP(s *Server, port int) error {
	return s.Listen(loc.Caller(0), port)
}

// HTTPRequest issues an outgoing request; onResponse receives the
// *IncomingMessage response.
func (c *Context) HTTPRequest(opts RequestOptions, onResponse *Function) *httpsim.ClientRequest {
	return httpsim.Request(c.Net(), loc.Caller(0), opts, onResponse)
}

// HTTPGet issues a GET request.
func (c *Context) HTTPGet(port int, path string, onResponse *Function) *httpsim.ClientRequest {
	return httpsim.Get(c.Net(), loc.Caller(0), port, path, onResponse)
}

// DB returns the session's simulated database, creating it on first use.
func (c *Context) DB() *DB {
	if c.db == nil {
		c.db = mongosim.New(c.loop, mongosim.Options{})
	}
	return c.db
}

// FS returns the session's simulated file system, creating it on first
// use.
func (c *Context) FS() *fssim.FS {
	if c.fs == nil {
		c.fs = fssim.New(c.loop, fssim.Options{})
	}
	return c.fs
}

// NewCell creates a shared variable observable by the experimental race
// detector (the paper's §IX extension).
func (c *Context) NewCell(name string, initial Value) *Cell {
	return state.NewCell(c.loop, name, loc.Caller(0), initial)
}

// CellGet reads a cell (wrapper capturing the user call site).
func (c *Context) CellGet(cell *Cell) Value { return cell.Get(loc.Caller(0)) }

// CellSet writes a cell (wrapper capturing the user call site).
func (c *Context) CellSet(cell *Cell, v Value) { cell.Set(loc.Caller(0), v) }
