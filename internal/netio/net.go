// Package netio simulates a non-blocking network on the event loop's
// virtual clock — the substrate that plays the role of the OS/libuv I/O
// layer in the paper's external-scheduling category. Listeners, sockets
// and their 'connection' / 'data' / 'end' / 'close' events are delivered
// through the loop's I/O poll phase with deterministic latencies, so a
// program's Async Graph is reproducible run after run.
//
// Sockets and servers are event emitters: all user-visible callback
// registration happens through the events package, which means the Async
// Graph models network I/O with the same OB/CR/CT/CE machinery as any
// other emitter (exactly how Node's net module looks to AsyncG).
//
// The network participates in the session Reset protocol: it registers a
// reset hook on its loop, and returns every socket, server and in-flight
// delivery record to internal free lists when the loop is reset. A reset
// network replays the next run with the same announcements (emitter
// re-creation via events.Reinit, interned names) a freshly-constructed
// network would make.
package netio

import (
	"fmt"
	"time"

	"asyncg/internal/eventloop"
	"asyncg/internal/events"
	"asyncg/internal/loc"
	"asyncg/internal/vm"
)

// Socket / server event names, matching Node's net module.
const (
	EventConnection = "connection"
	EventConnect    = "connect"
	EventData       = "data"
	EventEnd        = "end"
	EventClose      = "close"
	EventError      = "error"
	EventListening  = "listening"
)

// Latency is the one-way virtual latency of every delivery.
const Latency = 500 * time.Microsecond

// nameKey interns the per-connection diagnostic names: connection ids
// restart from 1 after a reset, so the same names recur run after run.
type nameKey struct {
	form byte // 'c'/'s' conn client/server, 'a'/'b' pipe ends, 'L' listener
	n    int
}

// Network owns the simulated wires: port bindings and in-flight
// deliveries. One Network per loop.
type Network struct {
	loop      *eventloop.Loop
	listeners map[int]*Server
	connSeq   int

	// Allocation reuse across loop resets: every socket/server ever
	// handed out is tracked in all*, returned to the free lists by
	// reset(), and revived through events.Reinit on its next use.
	allSocks  []*Socket
	sockFree  []*Socket
	allSrvs   []*Server
	srvFree   []*Server
	delivFree [dkCount][]*delivery
	names     map[nameKey]string
}

// New creates a network bound to the loop and registers its reset hook.
func New(l *eventloop.Loop) *Network {
	n := &Network{
		loop:      l,
		listeners: make(map[int]*Server),
		names:     make(map[nameKey]string),
	}
	l.OnReset(n.reset)
	return n
}

// reset returns the network to its cold state, keeping sockets, servers
// and delivery records for reuse. Name interning survives: ids repeat.
func (n *Network) reset() {
	clear(n.listeners)
	n.connSeq = 0
	for i, s := range n.allSocks {
		s.peer = nil
		s.ended = false
		s.closed = false
		s.key = 0
		n.sockFree = append(n.sockFree, s)
		n.allSocks[i] = nil
	}
	n.allSocks = n.allSocks[:0]
	for i, s := range n.allSrvs {
		s.open = false
		s.key = 0
		for j := range s.sockets {
			s.sockets[j] = nil
		}
		s.sockets = s.sockets[:0]
		n.srvFree = append(n.srvFree, s)
		n.allSrvs[i] = nil
	}
	n.allSrvs = n.allSrvs[:0]
}

// cachedName interns the fmt.Sprintf-built diagnostic labels.
func (n *Network) cachedName(form byte, id int) string {
	key := nameKey{form: form, n: id}
	if s, ok := n.names[key]; ok {
		return s
	}
	var s string
	switch form {
	case 'c':
		s = fmt.Sprintf("conn%d:client", id)
	case 's':
		s = fmt.Sprintf("conn%d:server", id)
	case 'a':
		s = fmt.Sprintf("pipe%d:a", id)
	case 'b':
		s = fmt.Sprintf("pipe%d:b", id)
	case 'L':
		s = fmt.Sprintf("server:%d", id)
	}
	n.names[key] = s
	return s
}

// Loop returns the event loop this network schedules on.
func (n *Network) Loop() *eventloop.Loop { return n.loop }

// Delivery kinds. Each kind has its own free list because the wrapped
// vm.Function — allocated once per record — carries the kind's API name.
type delivKind uint8

const (
	dkListening delivKind = iota
	dkHandshake
	dkConnected
	dkData
	dkEnd
	dkReset
	dkCount
)

var delivAPIs = [dkCount]string{
	dkListening: "net.listening",
	dkHandshake: "net.handshake",
	dkConnected: "net.connected",
	dkData:      "net.data",
	dkEnd:       "net.end",
	dkReset:     "net.reset",
}

// delivery is one in-flight I/O callback. Records are pooled per kind:
// the vm.Function wrapper closes over the record and is created once; the
// payload fields are refilled per delivery and the record returns itself
// to the free list when its run completes.
type delivery struct {
	net  *Network
	kind delivKind
	fn   *vm.Function

	sock *Socket // primary endpoint (client for handshake/connected)
	peer *Socket
	srv  *Server
	buf  []byte
	port int
	id   int
}

func (n *Network) borrowDelivery(kind delivKind) *delivery {
	free := n.delivFree[kind]
	if len(free) > 0 {
		d := free[len(free)-1]
		free[len(free)-1] = nil
		n.delivFree[kind] = free[:len(free)-1]
		return d
	}
	d := &delivery{net: n, kind: kind}
	d.fn = vm.NewFuncAt("("+delivAPIs[kind]+")", loc.Internal, d.invoke)
	return d
}

// release clears the payload and returns the record to its free list.
func (d *delivery) release() {
	d.sock, d.peer, d.srv, d.buf = nil, nil, nil, nil
	d.port, d.id = 0, 0
	d.net.delivFree[d.kind] = append(d.net.delivFree[d.kind], d)
}

// invoke is the delivery's run body, dispatched on the I/O poll phase.
func (d *delivery) invoke([]vm.Value) vm.Value {
	// The body may schedule further deliveries (which borrow fresh
	// records); this record frees itself only after the body is done.
	switch d.kind {
	case dkListening:
		d.srv.Emit(loc.Internal, EventListening)
	case dkHandshake:
		d.handshake()
	case dkConnected:
		if !d.sock.closed {
			d.sock.Emit(loc.Internal, EventConnect)
		}
	case dkData:
		if !d.peer.closed {
			d.peer.Emit(loc.Internal, EventData, d.buf)
		}
	case dkEnd:
		if d.peer != nil && !d.peer.closed {
			d.peer.Emit(loc.Internal, EventEnd)
			d.peer.scheduleClose()
		}
		d.sock.scheduleClose()
	case dkReset:
		d.peer.scheduleClose()
	}
	d.release()
	return vm.Undefined
}

func (d *delivery) handshake() {
	n, client := d.net, d.sock
	srv, ok := n.listeners[d.port]
	if !ok || !srv.open {
		client.closed = true
		client.Emit(loc.Internal, EventError, fmt.Sprintf("connect ECONNREFUSED :%d", d.port))
		return
	}
	remote := n.newSocket(loc.Internal, n.cachedName('s', d.id), true)
	remote.key = client.key
	client.peer = remote
	remote.peer = client
	srv.sockets = append(srv.sockets, remote)
	srv.Emit(loc.Internal, EventConnection, remote)
	next := n.borrowDelivery(dkConnected)
	next.sock = client
	n.send(next, client.key)
}

// send queues a filled delivery record on the I/O poll phase after the
// network latency, dispatching with a loop-pooled dispatch.
//
// key is the delivery's independence key for partial-order reduction:
// deliveries on distinct connections (distinct non-zero keys) touch
// disjoint socket state, so their poll-batch order commutes. Deliveries
// that touch shared network state (handshakes mutate the listener's
// accept queue and allocate the server-side socket) pass 0.
func (n *Network) send(d *delivery, key uint64) {
	dp := n.loop.ScheduleIOKeyedDispatch(n.loop.Now()+n.loop.PerturbLatency(Latency), key, d.fn, nil)
	dp.API = delivAPIs[d.kind]
}

// Server is a listening endpoint. It is an event emitter: 'connection'
// fires with the server-side *Socket of each accepted connection,
// 'listening' after Listen, and 'close' after Close.
type Server struct {
	*events.Emitter
	net     *Network
	port    int
	open    bool
	sockets []*Socket
	key     uint64 // independence key for server-scoped deliveries
	closeFn *vm.Function
}

// Listen binds a server to the port. Binding an occupied port returns an
// error (EADDRINUSE).
func (n *Network) Listen(at loc.Loc, port int) (*Server, error) {
	if _, taken := n.listeners[port]; taken {
		return nil, fmt.Errorf("netio: listen :%d: address already in use", port)
	}
	name := n.cachedName('L', port)
	var s *Server
	if len(n.srvFree) > 0 {
		s = n.srvFree[len(n.srvFree)-1]
		n.srvFree[len(n.srvFree)-1] = nil
		n.srvFree = n.srvFree[:len(n.srvFree)-1]
		s.Emitter.Reinit(name, at)
	} else {
		s = &Server{net: n, Emitter: events.New(n.loop, name, at)}
		srv := s
		s.closeFn = vm.NewFuncAt("(server.close)", loc.Internal, func([]vm.Value) vm.Value {
			srv.Emit(loc.Internal, EventClose)
			return vm.Undefined
		})
	}
	s.port = port
	s.open = true
	s.key = n.loop.NextIOKey()
	n.allSrvs = append(n.allSrvs, s)
	n.listeners[port] = s
	ev := n.loop.BorrowAPIEvent()
	ev.API = "server.listen"
	ev.Loc = at
	ev.Receiver = s.Ref()
	ev.SetOneArg(port)
	n.loop.EmitAPIEvent(ev)
	n.loop.ReturnAPIEvent(ev)
	d := n.borrowDelivery(dkListening)
	d.srv = s
	n.send(d, s.key)
	return s, nil
}

// Port returns the bound port.
func (s *Server) Port() int { return s.port }

// Close stops accepting connections and emits 'close' through the close
// phase once pending work drains.
func (s *Server) Close(at loc.Loc) {
	if !s.open {
		return
	}
	s.open = false
	delete(s.net.listeners, s.port)
	d := s.net.loop.NewDispatch()
	d.API = "server.close"
	s.net.loop.ScheduleClose(s.closeFn, nil, d)
}

// Socket is one endpoint of a connection. It is an event emitter:
// 'connect' (client side, once established), 'data' per delivered chunk,
// 'end' when the peer half-closes, 'close' when fully closed, and
// 'error' on failures.
type Socket struct {
	*events.Emitter
	net    *Network
	peer   *Socket
	server bool
	ended  bool // we sent end
	closed bool
	// key is the connection's independence key, shared by both endpoints
	// (an end/reset delivery touches both sides of its connection but no
	// other connection). 0 until the socket joins a connection.
	key     uint64
	closeFn *vm.Function
}

func (n *Network) newSocket(at loc.Loc, name string, server bool) *Socket {
	var s *Socket
	if len(n.sockFree) > 0 {
		s = n.sockFree[len(n.sockFree)-1]
		n.sockFree[len(n.sockFree)-1] = nil
		n.sockFree = n.sockFree[:len(n.sockFree)-1]
		s.Emitter.Reinit(name, at)
		s.server = server
	} else {
		s = &Socket{net: n, Emitter: events.New(n.loop, name, at), server: server}
		sock := s
		s.closeFn = vm.NewFuncAt("(socket.close)", loc.Internal, func([]vm.Value) vm.Value {
			sock.Emit(loc.Internal, EventClose)
			return vm.Undefined
		})
	}
	n.allSocks = append(n.allSocks, s)
	if !server {
		// Initiating sockets belong to the simulated client process;
		// measurement hooks scoped to the server skip their dispatches.
		s.SetZone("client")
	}
	return s
}

// Connect opens a client connection to the port. The returned client
// socket emits 'connect' once the (virtual) handshake completes; the
// server emits 'connection' with the server-side socket. Connecting to a
// closed port emits 'error' on the client socket.
func (n *Network) Connect(at loc.Loc, port int) *Socket {
	n.connSeq++
	id := n.connSeq
	client := n.newSocket(at, n.cachedName('c', id), false)
	ev := n.loop.BorrowAPIEvent()
	ev.API = "net.connect"
	ev.Loc = at
	ev.Receiver = client.Ref()
	ev.SetOneArg(port)
	n.loop.EmitAPIEvent(ev)
	n.loop.ReturnAPIEvent(ev)
	client.key = n.loop.NextIOKey()
	// The handshake mutates the listener map and allocates the
	// server-side socket (shared state and object identities), so it is
	// never independent: key 0.
	d := n.borrowDelivery(dkHandshake)
	d.sock = client
	d.port = port
	d.id = id
	n.send(d, 0)
	return client
}

// Pipe creates a directly-connected socket pair without a listening
// server — handy for protocol tests.
func (n *Network) Pipe(at loc.Loc) (*Socket, *Socket) {
	n.connSeq++
	id := n.connSeq
	a := n.newSocket(at, n.cachedName('a', id), false)
	z := n.newSocket(at, n.cachedName('b', id), true)
	a.peer, z.peer = z, a
	a.key = n.loop.NextIOKey()
	z.key = a.key
	return a, z
}

// Connected reports whether the socket has an established peer.
func (s *Socket) Connected() bool { return s.peer != nil && !s.closed }

// Write sends data to the peer, which receives it as a 'data' event
// after the network latency. Writing on an ended or closed socket emits
// 'error'.
func (s *Socket) Write(at loc.Loc, data []byte) bool {
	ev := s.net.loop.BorrowAPIEvent()
	ev.API = "socket.write"
	ev.Loc = at
	ev.Receiver = s.Ref()
	ev.SetOneArg(len(data))
	s.net.loop.EmitAPIEvent(ev)
	s.net.loop.ReturnAPIEvent(ev)
	if s.ended || s.closed || s.peer == nil {
		s.Emit(loc.Internal, EventError, "write after end")
		return false
	}
	// The chunk is copied: listeners may retain it past the delivery.
	d := s.net.borrowDelivery(dkData)
	d.peer = s.peer
	d.buf = append([]byte(nil), data...)
	s.net.send(d, s.key)
	return true
}

// WriteString is Write for string payloads.
func (s *Socket) WriteString(at loc.Loc, data string) bool {
	return s.Write(at, []byte(data))
}

// End half-closes the socket after optionally sending final data: the
// peer gets 'end' and then 'close'; this side gets 'close' too (the
// simulation closes both directions, like an HTTP/1.0-style exchange).
func (s *Socket) End(at loc.Loc, data []byte) {
	if s.ended || s.closed {
		return
	}
	if len(data) > 0 {
		s.Write(at, data)
	}
	ev := s.net.loop.BorrowAPIEvent()
	ev.API = "socket.end"
	ev.Loc = at
	ev.Receiver = s.Ref()
	s.net.loop.EmitAPIEvent(ev)
	s.net.loop.ReturnAPIEvent(ev)
	s.ended = true
	d := s.net.borrowDelivery(dkEnd)
	d.sock = s
	d.peer = s.peer
	s.net.send(d, s.key)
}

// Destroy closes both directions immediately (no 'end' events).
func (s *Socket) Destroy(at loc.Loc) {
	if s.closed {
		return
	}
	ev := s.net.loop.BorrowAPIEvent()
	ev.API = "socket.destroy"
	ev.Loc = at
	ev.Receiver = s.Ref()
	s.net.loop.EmitAPIEvent(ev)
	s.net.loop.ReturnAPIEvent(ev)
	peer := s.peer
	key := s.key
	s.scheduleClose()
	if peer != nil {
		d := s.net.borrowDelivery(dkReset)
		d.peer = peer
		s.net.send(d, key)
	}
}

// scheduleClose emits 'close' through the close-handlers phase, the
// lowest-priority queue (§II-B).
func (s *Socket) scheduleClose() {
	if s.closed {
		return
	}
	s.closed = true
	d := s.net.loop.NewDispatch()
	d.API = "socket.close"
	s.net.loop.ScheduleClose(s.closeFn, nil, d)
}
