package netio

import (
	"strings"
	"testing"

	"asyncg/internal/eventloop"
	"asyncg/internal/loc"
	"asyncg/internal/vm"
)

// run executes program on a fresh loop+network.
func run(t *testing.T, program func(l *eventloop.Loop, n *Network)) *eventloop.Loop {
	t.Helper()
	l := eventloop.New(eventloop.Options{TickLimit: 10_000})
	n := New(l)
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

func TestConnectDeliversConnectionEvent(t *testing.T) {
	var gotConn, gotConnect bool
	run(t, func(l *eventloop.Loop, n *Network) {
		srv, err := n.Listen(loc.Here(), 5000)
		if err != nil {
			t.Fatal(err)
		}
		srv.On(loc.Here(), EventConnection, fn("accept", func(args []vm.Value) {
			if _, ok := args[0].(*Socket); !ok {
				t.Errorf("connection arg = %T", args[0])
			}
			gotConn = true
		}))
		client := n.Connect(loc.Here(), 5000)
		client.On(loc.Here(), EventConnect, fn("onconnect", func([]vm.Value) {
			gotConnect = true
		}))
	})
	if !gotConn || !gotConnect {
		t.Fatalf("connection=%v connect=%v", gotConn, gotConnect)
	}
}

func TestListenTwiceFails(t *testing.T) {
	run(t, func(l *eventloop.Loop, n *Network) {
		if _, err := n.Listen(loc.Here(), 80); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Listen(loc.Here(), 80); err == nil {
			t.Error("second Listen on same port succeeded")
		}
	})
}

func TestConnectToClosedPortEmitsError(t *testing.T) {
	var errMsg string
	run(t, func(l *eventloop.Loop, n *Network) {
		c := n.Connect(loc.Here(), 9999)
		c.On(loc.Here(), EventError, fn("onerr", func(args []vm.Value) {
			errMsg = vm.ToString(args[0])
		}))
	})
	if !strings.Contains(errMsg, "ECONNREFUSED") {
		t.Fatalf("error = %q", errMsg)
	}
}

func TestDataFlowsBothDirections(t *testing.T) {
	var serverGot, clientGot string
	run(t, func(l *eventloop.Loop, n *Network) {
		srv, _ := n.Listen(loc.Here(), 5000)
		srv.On(loc.Here(), EventConnection, fn("accept", func(args []vm.Value) {
			remote := args[0].(*Socket)
			remote.On(loc.Here(), EventData, fn("srvData", func(args []vm.Value) {
				serverGot += string(args[0].([]byte))
				remote.WriteString(loc.Here(), "pong")
			}))
		}))
		client := n.Connect(loc.Here(), 5000)
		client.On(loc.Here(), EventConnect, fn("go", func([]vm.Value) {
			client.WriteString(loc.Here(), "ping")
		}))
		client.On(loc.Here(), EventData, fn("cliData", func(args []vm.Value) {
			clientGot += string(args[0].([]byte))
			client.End(loc.Here(), nil)
		}))
	})
	if serverGot != "ping" || clientGot != "pong" {
		t.Fatalf("server=%q client=%q", serverGot, clientGot)
	}
}

func TestEndDeliversEndThenClose(t *testing.T) {
	var order []string
	run(t, func(l *eventloop.Loop, n *Network) {
		srv, _ := n.Listen(loc.Here(), 5000)
		srv.On(loc.Here(), EventConnection, fn("accept", func(args []vm.Value) {
			remote := args[0].(*Socket)
			remote.On(loc.Here(), EventEnd, fn("onEnd", func([]vm.Value) {
				order = append(order, "end")
			}))
			remote.On(loc.Here(), EventClose, fn("onClose", func([]vm.Value) {
				order = append(order, "close")
			}))
		}))
		client := n.Connect(loc.Here(), 5000)
		client.On(loc.Here(), EventConnect, fn("go", func([]vm.Value) {
			client.End(loc.Here(), nil)
		}))
	})
	if len(order) != 2 || order[0] != "end" || order[1] != "close" {
		t.Fatalf("order = %v", order)
	}
}

func TestWriteAfterEndEmitsError(t *testing.T) {
	var gotErr bool
	run(t, func(l *eventloop.Loop, n *Network) {
		a, _ := n.Pipe(loc.Here())
		a.On(loc.Here(), EventError, fn("onerr", func([]vm.Value) { gotErr = true }))
		a.End(loc.Here(), nil)
		a.WriteString(loc.Here(), "too late")
	})
	if !gotErr {
		t.Fatal("no error for write-after-end")
	}
}

func TestCloseEventsRunInClosePhase(t *testing.T) {
	// The paper's §II-B: close handlers have the lowest priority. The
	// socket 'close' must arrive after an immediate scheduled in the
	// same iteration window.
	var order []string
	run(t, func(l *eventloop.Loop, n *Network) {
		a, b := n.Pipe(loc.Here())
		b.On(loc.Here(), EventClose, fn("onClose", func([]vm.Value) {
			order = append(order, "close")
		}))
		a.On(loc.Here(), EventClose, fn("onCloseA", func([]vm.Value) {}))
		a.End(loc.Here(), nil)
		l.SetImmediate(loc.Here(), fn("imm", func([]vm.Value) {
			order = append(order, "immediate")
		}))
	})
	if len(order) != 2 || order[0] != "immediate" || order[1] != "close" {
		t.Fatalf("order = %v", order)
	}
}

func TestServerCloseStopsAccepting(t *testing.T) {
	var refused, closed bool
	run(t, func(l *eventloop.Loop, n *Network) {
		srv, _ := n.Listen(loc.Here(), 5000)
		srv.On(loc.Here(), EventClose, fn("srvClose", func([]vm.Value) { closed = true }))
		srv.Close(loc.Here())
		c := n.Connect(loc.Here(), 5000)
		c.On(loc.Here(), EventError, fn("onerr", func([]vm.Value) { refused = true }))
	})
	if !refused || !closed {
		t.Fatalf("refused=%v closed=%v", refused, closed)
	}
}

func TestDeliveriesArriveInIOPhaseTicks(t *testing.T) {
	run(t, func(l *eventloop.Loop, n *Network) {
		a, b := n.Pipe(loc.Here())
		b.On(loc.Here(), EventData, fn("onData", func([]vm.Value) {
			if got := l.Phase(); got != eventloop.PhaseIO {
				t.Errorf("data delivered in phase %s, want io", got)
			}
		}))
		a.WriteString(loc.Here(), "x")
	})
}

func TestLatencyAdvancesVirtualClock(t *testing.T) {
	l := run(t, func(l *eventloop.Loop, n *Network) {
		a, b := n.Pipe(loc.Here())
		b.On(loc.Here(), EventData, fn("onData", func([]vm.Value) {}))
		a.WriteString(loc.Here(), "x")
	})
	if l.Now() < Latency {
		t.Fatalf("clock = %v, want >= %v", l.Now(), Latency)
	}
}

func TestChunksArriveInOrder(t *testing.T) {
	var got []string
	run(t, func(l *eventloop.Loop, n *Network) {
		a, b := n.Pipe(loc.Here())
		b.On(loc.Here(), EventData, fn("onData", func(args []vm.Value) {
			got = append(got, string(args[0].([]byte)))
		}))
		a.WriteString(loc.Here(), "one")
		a.WriteString(loc.Here(), "two")
		a.WriteString(loc.Here(), "three")
	})
	if strings.Join(got, ",") != "one,two,three" {
		t.Fatalf("got = %v", got)
	}
}

func TestDestroySkipsEndEvent(t *testing.T) {
	var sawEnd, sawClose bool
	run(t, func(l *eventloop.Loop, n *Network) {
		a, b := n.Pipe(loc.Here())
		b.On(loc.Here(), EventEnd, fn("onEnd", func([]vm.Value) { sawEnd = true }))
		b.On(loc.Here(), EventClose, fn("onClose", func([]vm.Value) { sawClose = true }))
		a.Destroy(loc.Here())
	})
	if sawEnd {
		t.Error("destroy delivered 'end'")
	}
	if !sawClose {
		t.Error("destroy did not deliver 'close'")
	}
}
