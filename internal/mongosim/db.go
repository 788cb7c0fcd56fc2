package mongosim

import (
	"fmt"
	"time"

	"asyncg/internal/eventloop"
	"asyncg/internal/events"
	"asyncg/internal/loc"
	"asyncg/internal/promise"
	"asyncg/internal/vm"
)

// Options configures the simulated database.
type Options struct {
	// Latency is the virtual I/O latency per operation.
	Latency time.Duration
	// DriverTicks is the number of internal process.nextTick hops the
	// driver performs per operation before delivering the result,
	// modelling the real mongodb driver's internal deferrals. These
	// hops are what makes nextTick the most-executed async API per
	// AcmeAir request in the paper's Fig. 6(b).
	DriverTicks int
}

// Defaults applied when Options fields are zero.
const (
	DefaultLatency     = 800 * time.Microsecond
	DefaultDriverTicks = 4
)

// DB is a simulated MongoDB instance bound to one event loop.
//
// The DB participates in the session Reset protocol: a loop reset
// returns every collection and the _id sequence to the sealed image (see
// Seal) — or, on a DB that was never sealed, empties every collection
// and restarts the _id sequence — while the collection objects
// themselves (and their interned API names) persist for the next run,
// as do pooled op/hop records and cursor emitters.
type DB struct {
	loop        *eventloop.Loop
	opts        Options
	collections map[string]*Collection
	idSeq       int64

	// sealed marks a DB with a reset image: imageSeq is the _id sequence
	// Seal recorded, and undo logs every in-place field write made since
	// the last reset so reset can roll the image documents back.
	sealed   bool
	imageSeq int64
	undo     []undoEntry

	opFree     []*opRecord
	hopFree    []*hopper
	allCursors []*events.Emitter
	cursorFree []*events.Emitter
}

// New creates a database and registers its reset hook.
func New(l *eventloop.Loop, opts Options) *DB {
	if opts.Latency == 0 {
		opts.Latency = DefaultLatency
	}
	if opts.DriverTicks == 0 {
		opts.DriverTicks = DefaultDriverTicks
	}
	db := &DB{
		loop:        l,
		opts:        opts,
		collections: make(map[string]*Collection),
	}
	l.OnReset(db.reset)
	return db
}

// undoEntry is one logged in-place write: doc[key] held old before it
// (present reports whether the key existed at all).
type undoEntry struct {
	doc     Document
	key     string
	old     any
	present bool
}

// Seal records every collection's current documents and the _id
// sequence as the state each later loop reset restores, so a data set
// loaded once serves run after run instead of being re-inserted per
// run. The image keeps the documents themselves, not copies: after Seal,
// Update logs each field it overwrites and reset replays the log
// backwards. That is sound only while every write to a stored document
// goes through Update — a caller that mutates returned documents
// directly must not Seal. Sealing again replaces the image.
func (db *DB) Seal() {
	for _, col := range db.collections {
		col.image = append(col.image[:0], col.docs...)
	}
	db.sealed = true
	db.imageSeq = db.idSeq
	db.undo = db.undo[:0]
}

func (db *DB) reset() {
	for i := len(db.undo) - 1; i >= 0; i-- {
		u := db.undo[i]
		if u.present {
			u.doc[u.key] = u.old
		} else {
			delete(u.doc, u.key)
		}
		db.undo[i] = undoEntry{}
	}
	db.undo = db.undo[:0]
	for _, col := range db.collections {
		n := len(col.docs)
		col.docs = append(col.docs[:0], col.image...)
		if n > len(col.docs) {
			clear(col.docs[len(col.docs):n])
		}
		col.key = 0
	}
	db.idSeq = db.imageSeq
	for i, cur := range db.allCursors {
		db.cursorFree = append(db.cursorFree, cur)
		db.allCursors[i] = nil
	}
	db.allCursors = db.allCursors[:0]
}

// C returns (creating on first use) the named collection.
func (db *DB) C(name string) *Collection {
	col, ok := db.collections[name]
	if !ok {
		col = &Collection{db: db, name: name}
		col.apis = colAPIs{
			insert:     "db." + name + ".insert",
			find:       "db." + name + ".find",
			findOne:    "db." + name + ".findOne",
			update:     "db." + name + ".update",
			remove:     "db." + name + ".remove",
			count:      "db." + name + ".count",
			findCursor: "db." + name + ".findCursor",
			findP:      "db." + name + ".findP",
			findOneP:   "db." + name + ".findOneP",
			insertP:    "db." + name + ".insertP",
			updateP:    "db." + name + ".updateP",
			removeP:    "db." + name + ".removeP",
			cursorName: "cursor:" + name,
		}
		db.collections[name] = col
	}
	return col
}

// colAPIs interns the per-operation API names, built once per collection.
type colAPIs struct {
	insert, find, findOne, update, remove, count, findCursor string
	findP, findOneP, insertP, updateP, removeP               string
	cursorName                                               string
}

// Collection is one document collection.
type Collection struct {
	db    *DB
	name  string
	apis  colAPIs
	docs  []Document
	image []Document // documents reset restores (see DB.Seal)
	key   uint64     // independence key for read-only ops (POR)
}

// Name returns the collection name.
func (c *Collection) Name() string { return c.name }

// Len returns the number of stored documents (synchronous; test helper).
func (c *Collection) Len() int { return len(c.docs) }

// InsertSync stores a document synchronously — for data loaders that
// populate the DB before the benchmark starts (the AcmeAir loader).
func (c *Collection) InsertSync(doc Document) Document {
	stored := doc.Clone()
	if _, ok := stored["_id"]; !ok {
		c.db.idSeq++
		stored["_id"] = c.db.idSeq
	}
	c.docs = append(c.docs, stored)
	return stored
}

// result carries an operation outcome to its callback.
type result struct {
	err      error
	docs     []Document
	doc      Document
	n        int
	distinct []any
}

// ioKey returns the collection's independence key, allocating on first
// use. Only read-only operations carry it: reads on distinct collections
// touch disjoint document sets, so their completion order commutes.
// Writes always pass key 0 — every insert draws from the DB-wide _id
// sequence, so even writes to different collections do not commute.
func (c *Collection) ioKey() uint64 {
	if c.key == 0 {
		c.key = c.db.loop.NextIOKey()
	}
	return c.key
}

// opRecord is one pooled in-flight operation: the I/O-phase completion
// function is allocated once per record and closes over the record; the
// op/deliver closures are refilled per use and the record frees itself
// once it has handed the chain to a hopper.
type opRecord struct {
	db      *DB
	fn      *vm.Function
	op      func() result
	deliver func(result)
}

func (db *DB) borrowOp() *opRecord {
	if n := len(db.opFree); n > 0 {
		r := db.opFree[n-1]
		db.opFree[n-1] = nil
		db.opFree = db.opFree[:n-1]
		return r
	}
	r := &opRecord{db: db}
	r.fn = vm.NewFuncAt("(db.io)", loc.Internal, r.invoke)
	return r
}

func (r *opRecord) invoke([]vm.Value) vm.Value {
	res := r.op()
	h := r.db.borrowHopper()
	h.k = r.db.opts.DriverTicks
	h.res = res
	h.deliver = r.deliver
	r.op, r.deliver = nil, nil
	r.db.opFree = append(r.db.opFree, r)
	h.step()
	return vm.Undefined
}

// hopper walks an operation result through the driver's internal
// process.nextTick deferrals. Each hop schedules a distinct function
// (fns[k]) as the original per-hop closures did, so a hop never appears
// to reschedule itself to the recursive-microtask detector.
type hopper struct {
	db      *DB
	fns     []*vm.Function
	k       int
	res     result
	deliver func(result)
}

func (db *DB) borrowHopper() *hopper {
	if n := len(db.hopFree); n > 0 {
		h := db.hopFree[n-1]
		db.hopFree[n-1] = nil
		db.hopFree = db.hopFree[:n-1]
		return h
	}
	h := &hopper{db: db, fns: make([]*vm.Function, db.opts.DriverTicks)}
	for i := range h.fns {
		h.fns[i] = vm.NewFuncAt("(driver.hop)", loc.Internal, func([]vm.Value) vm.Value {
			h.step()
			return vm.Undefined
		})
	}
	return h
}

// step performs one driver deferral, or delivers and frees the hopper
// when the hops are exhausted. Internal driver deferrals are real
// nextTicks with an internal-library source location.
func (h *hopper) step() {
	if h.k == 0 {
		deliver, res := h.deliver, h.res
		h.deliver, h.res = nil, result{}
		h.db.hopFree = append(h.db.hopFree, h)
		deliver(res)
		return
	}
	h.k--
	h.db.loop.NextTick(loc.Internal, h.fns[h.k])
}

// run schedules the operation op on the I/O phase after the DB latency,
// hops through the driver's internal nextTicks, and finally delivers via
// deliver. api names the user-facing operation in probe events. key is
// the independence key of the completion (see ioKey).
func (c *Collection) run(api string, key uint64, op func() result, deliver func(result)) {
	l := c.db.loop
	r := c.db.borrowOp()
	r.op, r.deliver = op, deliver
	dp := l.ScheduleIOKeyedDispatch(l.Now()+l.PerturbLatency(c.db.opts.Latency), key, r.fn, nil)
	dp.API = api
}

// registerCallback announces the user callback registration under the
// operation's API name and returns the registration sequence.
func (c *Collection) registerCallback(at loc.Loc, api string, cb *vm.Function) uint64 {
	seq := c.db.loop.NextRegSeq()
	ev := c.db.loop.BorrowAPIEvent()
	ev.API = api
	ev.Loc = at
	ev.SetOneReg(vm.Registration{Seq: seq, Callback: cb, Phase: string(eventloop.PhaseNextTick), Once: true, Role: "callback"})
	c.db.loop.EmitAPIEvent(ev)
	c.db.loop.ReturnAPIEvent(ev)
	return seq
}

// dispatchCallback delivers (err, payload...) to cb on the nextTick
// queue under the operation's API name.
func (c *Collection) dispatchCallback(api string, seq uint64, cb *vm.Function, args ...vm.Value) {
	d := c.db.loop.NewDispatch()
	d.API = api
	d.RegSeq = seq
	c.db.loop.ScheduleTickJob(cb, args, d)
}

// errValue renders an error for callback delivery (nil → Undefined).
func errValue(err error) vm.Value {
	if err == nil {
		return vm.Undefined
	}
	return err.Error()
}

// Insert stores a document and calls cb(err, doc).
func (c *Collection) Insert(at loc.Loc, doc Document, cb *vm.Function) {
	api := c.apis.insert
	var seq uint64
	if cb != nil {
		seq = c.registerCallback(at, api, cb)
	}
	c.run(api, 0, func() result {
		return result{doc: c.InsertSync(doc)}
	}, func(res result) {
		if cb != nil {
			c.dispatchCallback(api, seq, cb, errValue(res.err), res.doc)
		}
	})
}

// Find queries documents and calls cb(err, []Document).
func (c *Collection) Find(at loc.Loc, query string, cb *vm.Function) {
	api := c.apis.find
	seq := c.registerCallback(at, api, cb)
	c.run(api, c.ioKey(), func() result {
		docs, err := c.findSync(query)
		return result{err: err, docs: docs}
	}, func(res result) {
		c.dispatchCallback(api, seq, cb, errValue(res.err), res.docs)
	})
}

// FindOne queries the first matching document and calls cb(err, doc);
// doc is Undefined when nothing matches.
func (c *Collection) FindOne(at loc.Loc, query string, cb *vm.Function) {
	api := c.apis.findOne
	seq := c.registerCallback(at, api, cb)
	c.run(api, c.ioKey(), func() result {
		docs, err := c.findSync(query)
		res := result{err: err}
		if len(docs) > 0 {
			res.doc = docs[0]
		}
		return res
	}, func(res result) {
		var doc vm.Value = vm.Undefined
		if res.doc != nil {
			doc = res.doc
		}
		c.dispatchCallback(api, seq, cb, errValue(res.err), doc)
	})
}

// Update merges set into every matching document and calls cb(err, n).
func (c *Collection) Update(at loc.Loc, query string, set Document, cb *vm.Function) {
	api := c.apis.update
	var seq uint64
	if cb != nil {
		seq = c.registerCallback(at, api, cb)
	}
	c.run(api, 0, func() result {
		n, err := c.updateSync(query, set)
		return result{err: err, n: n}
	}, func(res result) {
		if cb != nil {
			c.dispatchCallback(api, seq, cb, errValue(res.err), res.n)
		}
	})
}

// Remove deletes matching documents and calls cb(err, n).
func (c *Collection) Remove(at loc.Loc, query string, cb *vm.Function) {
	api := c.apis.remove
	var seq uint64
	if cb != nil {
		seq = c.registerCallback(at, api, cb)
	}
	c.run(api, 0, func() result {
		n, err := c.removeSync(query)
		return result{err: err, n: n}
	}, func(res result) {
		if cb != nil {
			c.dispatchCallback(api, seq, cb, errValue(res.err), res.n)
		}
	})
}

// Count calls cb(err, n) with the number of matching documents.
func (c *Collection) Count(at loc.Loc, query string, cb *vm.Function) {
	api := c.apis.count
	seq := c.registerCallback(at, api, cb)
	c.run(api, c.ioKey(), func() result {
		docs, err := c.findSync(query)
		return result{err: err, n: len(docs)}
	}, func(res result) {
		c.dispatchCallback(api, seq, cb, errValue(res.err), res.n)
	})
}

// FindCursor queries documents and streams them through an emitter:
// 'data' per document, 'end' after the last, 'error' on a bad query —
// the driver's cursor interface, whose emitter traffic is part of the
// per-request emitter executions of Fig. 6(b).
func (c *Collection) FindCursor(at loc.Loc, query string) *events.Emitter {
	var cursor *events.Emitter
	if n := len(c.db.cursorFree); n > 0 {
		cursor = c.db.cursorFree[n-1]
		c.db.cursorFree[n-1] = nil
		c.db.cursorFree = c.db.cursorFree[:n-1]
		cursor.Reinit(c.apis.cursorName, at)
	} else {
		cursor = events.New(c.db.loop, c.apis.cursorName, at)
	}
	c.db.allCursors = append(c.db.allCursors, cursor)
	api := c.apis.findCursor
	c.run(api, c.ioKey(), func() result {
		docs, err := c.findSync(query)
		return result{err: err, docs: docs}
	}, func(res result) {
		if res.err != nil {
			cursor.Emit(loc.Internal, "error", res.err.Error())
			return
		}
		for _, doc := range res.docs {
			cursor.Emit(loc.Internal, "data", doc)
		}
		cursor.Emit(loc.Internal, "end", len(res.docs))
	})
	return cursor
}

// --- Promise interface (the paper's modified AcmeAir uses this) ---

// FindP returns a promise of []Document.
func (c *Collection) FindP(at loc.Loc, query string) *promise.Promise {
	p := promise.New(c.db.loop, at, nil)
	c.run(c.apis.findP, c.ioKey(), func() result {
		docs, err := c.findSync(query)
		return result{err: err, docs: docs}
	}, func(res result) {
		if res.err != nil {
			p.Reject(loc.Internal, res.err.Error())
			return
		}
		p.Resolve(loc.Internal, res.docs)
	})
	return p
}

// FindOneP returns a promise of a Document (Undefined when no match).
func (c *Collection) FindOneP(at loc.Loc, query string) *promise.Promise {
	p := promise.New(c.db.loop, at, nil)
	c.run(c.apis.findOneP, c.ioKey(), func() result {
		docs, err := c.findSync(query)
		res := result{err: err}
		if len(docs) > 0 {
			res.doc = docs[0]
		}
		return res
	}, func(res result) {
		switch {
		case res.err != nil:
			p.Reject(loc.Internal, res.err.Error())
		case res.doc != nil:
			p.Resolve(loc.Internal, res.doc)
		default:
			p.Resolve(loc.Internal, vm.Undefined)
		}
	})
	return p
}

// InsertP returns a promise of the stored Document.
func (c *Collection) InsertP(at loc.Loc, doc Document) *promise.Promise {
	p := promise.New(c.db.loop, at, nil)
	c.run(c.apis.insertP, 0, func() result {
		return result{doc: c.InsertSync(doc)}
	}, func(res result) {
		p.Resolve(loc.Internal, res.doc)
	})
	return p
}

// UpdateP returns a promise of the number of updated documents.
func (c *Collection) UpdateP(at loc.Loc, query string, set Document) *promise.Promise {
	p := promise.New(c.db.loop, at, nil)
	c.run(c.apis.updateP, 0, func() result {
		n, err := c.updateSync(query, set)
		return result{err: err, n: n}
	}, func(res result) {
		if res.err != nil {
			p.Reject(loc.Internal, res.err.Error())
			return
		}
		p.Resolve(loc.Internal, res.n)
	})
	return p
}

// RemoveP returns a promise of the number of removed documents.
func (c *Collection) RemoveP(at loc.Loc, query string) *promise.Promise {
	p := promise.New(c.db.loop, at, nil)
	c.run(c.apis.removeP, 0, func() result {
		n, err := c.removeSync(query)
		return result{err: err, n: n}
	}, func(res result) {
		if res.err != nil {
			p.Reject(loc.Internal, res.err.Error())
			return
		}
		p.Resolve(loc.Internal, res.n)
	})
	return p
}

// --- Synchronous core ---

func (c *Collection) findSync(query string) ([]Document, error) {
	expr, err := Compile(query)
	if err != nil {
		return nil, err
	}
	var out []Document
	for _, doc := range c.docs {
		if expr.Match(doc) {
			out = append(out, doc)
		}
	}
	// MongoDB's natural order is unspecified without a sort, so the
	// result order is an explorable (opt-in) choice point. It covers
	// every read path: Find, FindOne (docs[0]), cursors and promises.
	c.db.loop.Permute(eventloop.ChoiceDataOrder, len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

func (c *Collection) updateSync(query string, set Document) (int, error) {
	expr, err := Compile(query)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, doc := range c.docs {
		if expr.Match(doc) {
			for k, v := range set {
				if k == "_id" {
					return n, fmt.Errorf("mongosim: cannot update _id")
				}
				if c.db.sealed {
					old, present := doc[k]
					c.db.undo = append(c.db.undo, undoEntry{doc: doc, key: k, old: old, present: present})
				}
				doc[k] = v
			}
			n++
		}
	}
	return n, nil
}

func (c *Collection) removeSync(query string) (int, error) {
	expr, err := Compile(query)
	if err != nil {
		return 0, err
	}
	kept := c.docs[:0]
	removed := 0
	for _, doc := range c.docs {
		if expr.Match(doc) {
			removed++
			continue
		}
		kept = append(kept, doc)
	}
	c.docs = kept
	return removed, nil
}
