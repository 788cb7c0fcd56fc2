package httpsim

import (
	"fmt"

	"asyncg/internal/eventloop"
	"asyncg/internal/events"
	"asyncg/internal/loc"
	"asyncg/internal/netio"
	"asyncg/internal/vm"
)

// API names announced through probe events.
const (
	APICreateServer = "http.createServer"
	APIRequest      = "http.request"
)

// IncomingMessage is a received request (server side) or response
// (client side). It is an event emitter: 'data' per body chunk, 'end'
// when the body completes, 'close' when the connection closes.
type IncomingMessage struct {
	*events.Emitter
	// Request-side fields.
	Method string
	Path   string
	// Response-side field.
	StatusCode int

	Headers map[string]string
}

func newIncoming(l *eventloop.Loop, name string, h *Head) *IncomingMessage {
	return &IncomingMessage{
		Emitter:    events.New(l, name, loc.Internal),
		Method:     h.Method,
		Path:       h.Path,
		StatusCode: h.Status,
		Headers:    h.Headers,
	}
}

// ServerResponse accumulates the response for one request and writes it
// to the connection on End. Responses are buffered whole (no chunked
// transfer encoding in the simulation).
type ServerResponse struct {
	sock      *netio.Socket
	loop      *eventloop.Loop
	status    int
	headers   map[string]string
	body      []byte
	finished  bool
	keepAlive bool
}

// WriteHead sets the response status.
func (r *ServerResponse) WriteHead(status int) *ServerResponse {
	r.status = status
	return r
}

// SetHeader sets one response header.
func (r *ServerResponse) SetHeader(key, value string) *ServerResponse {
	r.headers[key] = value
	return r
}

// Write appends body bytes.
func (r *ServerResponse) Write(data []byte) *ServerResponse {
	r.body = append(r.body, data...)
	return r
}

// End finishes the response, optionally appending final body data, and
// writes it to the socket. Without keep-alive the connection is closed.
// The wire message is encoded before End returns, so data is not kept.
func (r *ServerResponse) End(at loc.Loc, data []byte) {
	if r.finished {
		return
	}
	r.finished = true
	body := data
	if len(r.body) > 0 {
		r.body = append(r.body, data...)
		body = r.body
	}
	wire := EncodeResponse(r.status, r.headers, body)
	if r.keepAlive {
		r.sock.Write(at, wire)
		return
	}
	r.sock.End(at, wire)
}

// EndString is End for string bodies.
func (r *ServerResponse) EndString(at loc.Loc, body string) { r.End(at, []byte(body)) }

// Finished reports whether End was called.
func (r *ServerResponse) Finished() bool { return r.finished }

// Server is a simulated http.Server: an event emitter whose 'request'
// event fires with (req *IncomingMessage, res *ServerResponse) per
// parsed request; 'connection' fires with each accepted socket and
// 'close' when the listener shuts down.
type Server struct {
	*events.Emitter
	net   *netio.Network
	inner *netio.Server
}

// CreateServer creates an HTTP server. As in Node, the optional handler
// is registered as a listener for the 'request' event on the server's
// internal emitter — which is exactly how the paper's Fig. 3 graph
// shows http.createServer (□-L7 bound to the internal emitter E1).
func CreateServer(n *netio.Network, at loc.Loc, handler *vm.Function) *Server {
	s := &Server{
		Emitter: events.New(n.Loop(), "httpServer", at),
		net:     n,
	}
	if handler != nil {
		s.OnWithAPI(at, APICreateServer, "request", handler)
	}
	return s
}

// Listen binds the server to a port.
func (s *Server) Listen(at loc.Loc, port int) error {
	inner, err := s.net.Listen(at, port)
	if err != nil {
		return err
	}
	s.inner = inner
	server := s
	inner.On(loc.Internal, netio.EventConnection, vm.NewFuncAt("(http.accept)", loc.Internal,
		func(args []vm.Value) vm.Value {
			sock := args[0].(*netio.Socket)
			server.Emit(loc.Internal, "connection", sock)
			server.handleConnection(sock)
			return vm.Undefined
		}))
	inner.On(loc.Internal, netio.EventClose, vm.NewFuncAt("(http.closed)", loc.Internal,
		func(args []vm.Value) vm.Value {
			server.Emit(loc.Internal, "close")
			return vm.Undefined
		}))
	return nil
}

// Close shuts the listener down.
func (s *Server) Close(at loc.Loc) {
	if s.inner != nil {
		s.inner.Close(at)
	}
}

// handleConnection wires a per-connection parser that turns wire bytes
// into 'request' emissions and per-request 'data'/'end' events.
func (s *Server) handleConnection(sock *netio.Socket) {
	parser := NewParser()
	var current *IncomingMessage
	parser.OnHead = func(h *Head) {
		if h.Kind != RequestMessage {
			sock.Destroy(loc.Internal)
			return
		}
		req := newIncoming(s.net.Loop(), "httpRequest", h)
		res := &ServerResponse{
			sock:      sock,
			loop:      s.net.Loop(),
			status:    200,
			headers:   make(map[string]string),
			keepAlive: h.KeepAlive(),
		}
		current = req
		s.Emit(loc.Internal, "request", req, res)
	}
	parser.OnBody = func(chunk []byte) {
		if current != nil {
			current.Emit(loc.Internal, "data", chunk)
		}
	}
	parser.OnComplete = func() {
		if current != nil {
			current.Emit(loc.Internal, "end")
			current = nil
		}
	}
	sock.On(loc.Internal, netio.EventData, vm.NewFuncAt("(http.parse)", loc.Internal,
		func(args []vm.Value) vm.Value {
			if err := parser.Feed(args[0].([]byte)); err != nil {
				resp := EncodeResponse(400, map[string]string{}, []byte(fmt.Sprintf("bad request: %v", err)))
				sock.End(loc.Internal, resp)
			}
			return vm.Undefined
		}))
	sock.On(loc.Internal, netio.EventClose, vm.NewFuncAt("(http.connClose)", loc.Internal,
		func(args []vm.Value) vm.Value {
			if current != nil {
				current.Emit(loc.Internal, "close")
				current = nil
			}
			return vm.Undefined
		}))
}
