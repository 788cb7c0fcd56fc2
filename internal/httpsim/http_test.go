package httpsim

import (
	"strings"
	"testing"

	"asyncg/internal/eventloop"
	"asyncg/internal/loc"
	"asyncg/internal/netio"
	"asyncg/internal/vm"
)

// serve runs program with a loop + network; the program sets up servers
// and clients.
func serve(t *testing.T, program func(l *eventloop.Loop, n *netio.Network)) *eventloop.Loop {
	t.Helper()
	l := eventloop.New(eventloop.Options{TickLimit: 50_000})
	n := netio.New(l)
	main := vm.NewFunc("main", func([]vm.Value) vm.Value {
		program(l, n)
		return vm.Undefined
	})
	if err := l.Run(main); err != nil {
		t.Fatal(err)
	}
	return l
}

func fn(name string, f func(args []vm.Value)) *vm.Function {
	return vm.NewFunc(name, func(args []vm.Value) vm.Value {
		f(args)
		return vm.Undefined
	})
}

func TestHelloWorldExchange(t *testing.T) {
	var status int
	var body string
	serve(t, func(l *eventloop.Loop, n *netio.Network) {
		srv := CreateServer(n, loc.Here(), fn("handler", func(args []vm.Value) {
			res := args[1].(*ServerResponse)
			res.EndString(loc.Here(), "Hello World!")
		}))
		if err := srv.Listen(loc.Here(), 5000); err != nil {
			t.Fatal(err)
		}
		Get(n, loc.Here(), 5000, "/", fn("onResp", func(args []vm.Value) {
			resp := args[0].(*IncomingMessage)
			status = resp.StatusCode
			CollectBody(resp, func(b []byte) { body = string(b) })
		}))
	})
	if status != 200 || body != "Hello World!" {
		t.Fatalf("status=%d body=%q", status, body)
	}
}

// TestWriteThenEnd: End appends its data to what Write buffered, and a
// handler may reuse the slice it passed to End once End returns.
func TestWriteThenEnd(t *testing.T) {
	var bodies []string
	serve(t, func(l *eventloop.Loop, n *netio.Network) {
		scratch := []byte("cd")
		srv := CreateServer(n, loc.Here(), fn("handler", func(args []vm.Value) {
			res := args[1].(*ServerResponse)
			if args[0].(*IncomingMessage).Path == "/write" {
				res.Write([]byte("ab"))
			}
			res.End(loc.Here(), scratch)
			copy(scratch, "xx")
		}))
		if err := srv.Listen(loc.Here(), 5000); err != nil {
			t.Fatal(err)
		}
		for _, path := range []string{"/write", "/end"} {
			Get(n, loc.Here(), 5000, path, fn("onResp", func(args []vm.Value) {
				CollectBody(args[0].(*IncomingMessage), func(b []byte) { bodies = append(bodies, path+"="+string(b)) })
			}))
		}
	})
	if got := strings.Join(bodies, " "); got != "/write=abcd /end=xx" {
		t.Fatalf("bodies = %q, want /write=abcd and /end=xx", got)
	}
}

func TestRequestBodyStreamsToServer(t *testing.T) {
	// The §II-A example: accept data chunks, defer processing with
	// setImmediate, respond with the processed body.
	var echoed string
	serve(t, func(l *eventloop.Loop, n *netio.Network) {
		srv := CreateServer(n, loc.Here(), fn("accept", func(args []vm.Value) {
			req := args[0].(*IncomingMessage)
			res := args[1].(*ServerResponse)
			var chunks []byte
			req.On(loc.Here(), "data", fn("data", func(args []vm.Value) {
				chunks = append(chunks, args[0].([]byte)...)
			}))
			req.On(loc.Here(), "end", fn("end", func([]vm.Value) {
				l.SetImmediate(loc.Here(), fn("defer", func([]vm.Value) {
					res.EndString(loc.Here(), "processed:"+string(chunks))
				}))
			}))
		}))
		if err := srv.Listen(loc.Here(), 5000); err != nil {
			t.Fatal(err)
		}
		Request(n, loc.Here(), RequestOptions{
			Port: 5000, Method: "POST", Path: "/submit", Body: []byte("abc"),
		}, fn("onResp", func(args []vm.Value) {
			CollectBody(args[0].(*IncomingMessage), func(b []byte) { echoed = string(b) })
		}))
	})
	if echoed != "processed:abc" {
		t.Fatalf("echoed = %q", echoed)
	}
}

func TestRequestToClosedPortEmitsError(t *testing.T) {
	var gotErr bool
	serve(t, func(l *eventloop.Loop, n *netio.Network) {
		req := Get(n, loc.Here(), 1234, "/", nil)
		req.On(loc.Here(), "error", fn("err", func([]vm.Value) { gotErr = true }))
	})
	if !gotErr {
		t.Fatal("no error event for refused connection")
	}
}

func TestServerSeesMethodPathHeaders(t *testing.T) {
	var method, path, token string
	serve(t, func(l *eventloop.Loop, n *netio.Network) {
		srv := CreateServer(n, loc.Here(), fn("h", func(args []vm.Value) {
			req := args[0].(*IncomingMessage)
			method, path, token = req.Method, req.Path, req.Headers["x-token"]
			args[1].(*ServerResponse).WriteHead(204).End(loc.Here(), nil)
		}))
		if err := srv.Listen(loc.Here(), 5000); err != nil {
			t.Fatal(err)
		}
		Request(n, loc.Here(), RequestOptions{
			Port: 5000, Method: "DELETE", Path: "/rest/api/thing/9",
			Headers: map[string]string{"x-token": "t0k"},
		}, nil)
	})
	if method != "DELETE" || path != "/rest/api/thing/9" || token != "t0k" {
		t.Fatalf("method=%q path=%q token=%q", method, path, token)
	}
}

func TestMultipleSequentialRequests(t *testing.T) {
	var served int
	var responses int
	serve(t, func(l *eventloop.Loop, n *netio.Network) {
		srv := CreateServer(n, loc.Here(), fn("h", func(args []vm.Value) {
			served++
			args[1].(*ServerResponse).EndString(loc.Here(), "ok")
		}))
		if err := srv.Listen(loc.Here(), 5000); err != nil {
			t.Fatal(err)
		}
		var issue func(k int)
		issue = func(k int) {
			if k == 0 {
				return
			}
			Get(n, loc.Here(), 5000, "/", fn("resp", func(args []vm.Value) {
				responses++
				issue(k - 1)
			}))
		}
		issue(5)
	})
	if served != 5 || responses != 5 {
		t.Fatalf("served=%d responses=%d", served, responses)
	}
}

func TestConcurrentClients(t *testing.T) {
	var served int
	serve(t, func(l *eventloop.Loop, n *netio.Network) {
		srv := CreateServer(n, loc.Here(), fn("h", func(args []vm.Value) {
			served++
			args[1].(*ServerResponse).EndString(loc.Here(), "ok")
		}))
		if err := srv.Listen(loc.Here(), 5000); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			Get(n, loc.Here(), 5000, "/", nil)
		}
	})
	if served != 10 {
		t.Fatalf("served = %d", served)
	}
}

func TestStatusCodePropagates(t *testing.T) {
	var status int
	serve(t, func(l *eventloop.Loop, n *netio.Network) {
		srv := CreateServer(n, loc.Here(), fn("h", func(args []vm.Value) {
			args[1].(*ServerResponse).WriteHead(404).EndString(loc.Here(), "nope")
		}))
		if err := srv.Listen(loc.Here(), 5000); err != nil {
			t.Fatal(err)
		}
		Get(n, loc.Here(), 5000, "/missing", fn("resp", func(args []vm.Value) {
			status = args[0].(*IncomingMessage).StatusCode
		}))
	})
	if status != 404 {
		t.Fatalf("status = %d", status)
	}
}

func TestResponseHeadersArrive(t *testing.T) {
	var ctype string
	serve(t, func(l *eventloop.Loop, n *netio.Network) {
		srv := CreateServer(n, loc.Here(), fn("h", func(args []vm.Value) {
			res := args[1].(*ServerResponse)
			res.SetHeader("content-type", "application/json")
			res.EndString(loc.Here(), "{}")
		}))
		if err := srv.Listen(loc.Here(), 5000); err != nil {
			t.Fatal(err)
		}
		Get(n, loc.Here(), 5000, "/", fn("resp", func(args []vm.Value) {
			ctype = args[0].(*IncomingMessage).Headers["content-type"]
		}))
	})
	if ctype != "application/json" {
		t.Fatalf("content-type = %q", ctype)
	}
}

func TestHandlerRunsInIOTick(t *testing.T) {
	serve(t, func(l *eventloop.Loop, n *netio.Network) {
		srv := CreateServer(n, loc.Here(), fn("h", func(args []vm.Value) {
			if got := l.Phase(); got != eventloop.PhaseIO {
				t.Errorf("handler phase = %s, want io", got)
			}
			args[1].(*ServerResponse).EndString(loc.Here(), "ok")
		}))
		if err := srv.Listen(loc.Here(), 5000); err != nil {
			t.Fatal(err)
		}
		Get(n, loc.Here(), 5000, "/", nil)
	})
}

func TestKeepAlivePipelinedRequests(t *testing.T) {
	// Two requests sent on one connection with keep-alive: the server
	// responds to both on the same socket, and the parser separates the
	// pipelined responses.
	var bodies []string
	serve(t, func(l *eventloop.Loop, n *netio.Network) {
		srv := CreateServer(n, loc.Here(), fn("h", func(args []vm.Value) {
			req := args[0].(*IncomingMessage)
			args[1].(*ServerResponse).EndString(loc.Here(), "echo:"+req.Path)
		}))
		if err := srv.Listen(loc.Here(), 5000); err != nil {
			t.Fatal(err)
		}
		// Hand-rolled client: one socket, two pipelined requests.
		sock := n.Connect(loc.Here(), 5000)
		parser := NewParser()
		var body []byte
		parser.OnBody = func(chunk []byte) { body = append(body, chunk...) }
		parser.OnComplete = func() {
			bodies = append(bodies, string(body))
			body = nil
			if len(bodies) == 2 {
				sock.End(loc.Here(), nil)
			}
		}
		sock.On(loc.Here(), netio.EventConnect, fn("send", func([]vm.Value) {
			wire := EncodeRequest("GET", "/a", map[string]string{"connection": "keep-alive"}, nil)
			wire = append(wire, EncodeRequest("GET", "/b", map[string]string{"connection": "keep-alive"}, nil)...)
			sock.Write(loc.Here(), wire)
		}))
		sock.On(loc.Here(), netio.EventData, fn("recv", func(args []vm.Value) {
			if err := parser.Feed(args[0].([]byte)); err != nil {
				t.Error(err)
			}
		}))
	})
	if len(bodies) != 2 || bodies[0] != "echo:/a" || bodies[1] != "echo:/b" {
		t.Fatalf("bodies = %v", bodies)
	}
}

func TestMalformedRequestGets400(t *testing.T) {
	var status int
	serve(t, func(l *eventloop.Loop, n *netio.Network) {
		srv := CreateServer(n, loc.Here(), fn("h", func(args []vm.Value) {
			t.Error("handler ran for malformed request")
		}))
		if err := srv.Listen(loc.Here(), 5000); err != nil {
			t.Fatal(err)
		}
		sock := n.Connect(loc.Here(), 5000)
		parser := NewParser()
		parser.OnHead = func(h *Head) { status = h.Status }
		sock.On(loc.Here(), netio.EventConnect, fn("send", func([]vm.Value) {
			sock.WriteString(loc.Here(), "GARBAGE\r\n\r\n")
		}))
		sock.On(loc.Here(), netio.EventData, fn("recv", func(args []vm.Value) {
			if err := parser.Feed(args[0].([]byte)); err != nil {
				t.Error(err)
			}
		}))
	})
	if status != 400 {
		t.Fatalf("status = %d, want 400", status)
	}
}
