package acmeair

import (
	"encoding/json"
	"strings"
	"testing"

	"asyncg/internal/eventloop"
	"asyncg/internal/httpsim"
	"asyncg/internal/loc"
	"asyncg/internal/mongosim"
	"asyncg/internal/netio"
	"asyncg/internal/vm"
)

// env bundles a running AcmeAir instance for tests.
type env struct {
	l   *eventloop.Loop
	n   *netio.Network
	db  *mongosim.DB
	app *App
}

// serve boots the app and runs program against it.
func serve(t *testing.T, program func(e *env)) *env {
	t.Helper()
	l := eventloop.New(eventloop.Options{TickLimit: 500_000})
	n := netio.New(l)
	db := mongosim.New(l)
	LoadSampleData(db, DataSpec{Customers: 10, FlightsPerSegment: 3})
	app := New(l, n, db)
	e := &env{l: l, n: n, db: db, app: app}
	main := vm.NewFunc("main", func([]vm.Value) vm.Value {
		if err := app.Listen(loc.Here()); err != nil {
			t.Error(err)
			return vm.Undefined
		}
		program(e)
		return vm.Undefined
	})
	if err := l.Run(main); err != nil {
		t.Fatal(err)
	}
	if got := l.Uncaught(); len(got) != 0 {
		t.Fatalf("uncaught: %v", got)
	}
	return e
}

// call issues a request and hands (status, parsed JSON) to done.
func (e *env) call(method, path, body, session string, done func(status int, payload map[string]any)) {
	headers := map[string]string{}
	if session != "" {
		headers["x-session"] = session
	}
	httpsim.Request(e.n, loc.Here(), httpsim.RequestOptions{
		Port: Port, Method: method, Path: path,
		Headers: headers, Body: []byte(body),
	}, vm.NewFunc("testResp", func(args []vm.Value) vm.Value {
		resp := args[0].(*httpsim.IncomingMessage)
		httpsim.CollectBody(resp, func(b []byte) {
			var payload map[string]any
			_ = json.Unmarshal(b, &payload)
			done(resp.StatusCode, payload)
		})
		return vm.Undefined
	}))
}

// login authenticates uid0 and hands the session id to next.
func (e *env) login(t *testing.T, user string, next func(session string)) {
	e.call("POST", "/rest/api/login", "login="+user+"&password=password", "",
		func(status int, payload map[string]any) {
			if status != 200 {
				t.Errorf("login status = %d (%v)", status, payload)
				return
			}
			next(payload["sessionid"].(string))
		})
}

func TestLoginSuccess(t *testing.T) {
	var sid string
	serve(t, func(e *env) {
		e.login(t, "uid0", func(session string) { sid = session })
	})
	if sid == "" {
		t.Fatal("no session id")
	}
}

func TestLoginWrongPassword(t *testing.T) {
	var status int
	serve(t, func(e *env) {
		e.call("POST", "/rest/api/login", "login=uid0&password=wrong", "",
			func(s int, _ map[string]any) { status = s })
	})
	if status != 401 {
		t.Fatalf("status = %d", status)
	}
}

func TestLoginUnknownUser(t *testing.T) {
	var status int
	serve(t, func(e *env) {
		e.call("POST", "/rest/api/login", "login=nobody&password=password", "",
			func(s int, _ map[string]any) { status = s })
	})
	if status != 401 {
		t.Fatalf("status = %d", status)
	}
}

func TestQueryFlightsReturnsSegmentFlights(t *testing.T) {
	var flights []any
	serve(t, func(e *env) {
		e.call("POST", "/rest/api/flights/queryflights",
			"fromAirport=SFO&toAirport=JFK", "",
			func(status int, payload map[string]any) {
				if status != 200 {
					t.Errorf("status = %d (%v)", status, payload)
					return
				}
				flights, _ = payload["flights"].([]any)
			})
	})
	if len(flights) != 3 {
		t.Fatalf("flights = %d, want 3", len(flights))
	}
}

func TestQueryFlightsUnknownRoute(t *testing.T) {
	var flights any = "unset"
	serve(t, func(e *env) {
		e.call("POST", "/rest/api/flights/queryflights",
			"fromAirport=XXX&toAirport=YYY", "",
			func(status int, payload map[string]any) {
				flights = payload["flights"]
			})
	})
	list, ok := flights.([]any)
	if !ok || len(list) != 0 {
		t.Fatalf("flights = %#v", flights)
	}
}

func TestBookingLifecycle(t *testing.T) {
	var bookingID string
	var listed, removed float64
	e := serve(t, func(e *env) {
		e.login(t, "uid1", func(session string) {
			e.call("POST", "/rest/api/bookings/bookflights",
				"flightId=AA1-0&userid=uid1", session,
				func(status int, payload map[string]any) {
					if status != 200 {
						t.Errorf("book status = %d (%v)", status, payload)
						return
					}
					bookingID = payload["bookingId"].(string)
					e.call("GET", "/rest/api/bookings/byuser/uid1", "", session,
						func(status int, payload map[string]any) {
							listed = float64(len(payload["bookings"].([]any)))
							e.call("POST", "/rest/api/bookings/cancelbooking",
								"number="+bookingID+"&userid=uid1", session,
								func(status int, payload map[string]any) {
									removed, _ = payload["removed"].(float64)
								})
						})
				})
		})
	})
	if bookingID == "" || listed != 1 || removed != 1 {
		t.Fatalf("booking=%q listed=%v removed=%v", bookingID, listed, removed)
	}
	if e.db.C(ColBookings).Len() != 0 {
		t.Fatalf("bookings left over: %d", e.db.C(ColBookings).Len())
	}
}

func TestSessionRequiredForBookings(t *testing.T) {
	var status int
	serve(t, func(e *env) {
		e.call("GET", "/rest/api/bookings/byuser/uid0", "", "",
			func(s int, _ map[string]any) { status = s })
	})
	if status != 403 {
		t.Fatalf("status = %d, want 403", status)
	}
}

func TestInvalidSessionRejected(t *testing.T) {
	var status int
	serve(t, func(e *env) {
		e.call("GET", "/rest/api/customer/byid/uid0", "", "s999",
			func(s int, _ map[string]any) { status = s })
	})
	if status != 403 {
		t.Fatalf("status = %d, want 403", status)
	}
}

func TestCustomerViewAndUpdate(t *testing.T) {
	var statusField string
	var updated float64
	var phoneAfter string
	serve(t, func(e *env) {
		e.login(t, "uid2", func(session string) {
			e.call("GET", "/rest/api/customer/byid/uid2", "", session,
				func(status int, payload map[string]any) {
					statusField, _ = payload["status"].(string)
					e.call("POST", "/rest/api/customer/byid/uid2",
						"phoneNumber=555-000", session,
						func(status int, payload map[string]any) {
							updated, _ = payload["updated"].(float64)
							e.call("GET", "/rest/api/customer/byid/uid2", "", session,
								func(status int, payload map[string]any) {
									phoneAfter, _ = payload["phoneNumber"].(string)
								})
						})
				})
		})
	})
	if statusField != "GOLD" || updated != 1 || phoneAfter != "555-000" {
		t.Fatalf("status=%q updated=%v phone=%q", statusField, updated, phoneAfter)
	}
}

func TestLogoutInvalidatesSession(t *testing.T) {
	var secondStatus int
	serve(t, func(e *env) {
		e.login(t, "uid3", func(session string) {
			e.call("GET", "/rest/api/login/logout?login=uid3", "", "",
				func(status int, _ map[string]any) {
					e.call("GET", "/rest/api/customer/byid/uid3", "", session,
						func(s int, _ map[string]any) { secondStatus = s })
				})
		})
	})
	if secondStatus != 403 {
		t.Fatalf("status after logout = %d, want 403", secondStatus)
	}
}

func TestUnknownEndpoint404(t *testing.T) {
	var status int
	serve(t, func(e *env) {
		e.call("GET", "/rest/api/nothing", "", "",
			func(s int, _ map[string]any) { status = s })
	})
	if status != 404 {
		t.Fatalf("status = %d", status)
	}
}

func TestBookUnknownFlight(t *testing.T) {
	var status int
	serve(t, func(e *env) {
		e.login(t, "uid4", func(session string) {
			e.call("POST", "/rest/api/bookings/bookflights",
				"flightId=ZZZ-9&userid=uid4", session,
				func(s int, _ map[string]any) { status = s })
		})
	})
	if status != 404 {
		t.Fatalf("status = %d, want 404", status)
	}
}

func TestServedCounterAdvances(t *testing.T) {
	e := serve(t, func(e *env) {
		e.call("POST", "/rest/api/flights/queryflights",
			"fromAirport=SFO&toAirport=JFK", "", func(int, map[string]any) {})
		e.call("POST", "/rest/api/flights/queryflights",
			"fromAirport=JFK&toAirport=SFO", "", func(int, map[string]any) {})
	})
	if e.app.Served() != 2 {
		t.Fatalf("served = %d", e.app.Served())
	}
}

func TestFormRoundTrip(t *testing.T) {
	in := map[string]string{
		"login":    "uid0",
		"password": "p@ss word+1",
		"empty":    "",
		"sym":      "a&b=c%d",
	}
	out := parseForm(encodeForm(in))
	if len(out) != len(in) {
		t.Fatalf("out = %v", out)
	}
	for k, v := range in {
		if out[k] != v {
			t.Errorf("field %q = %q, want %q", k, out[k], v)
		}
	}
}

func TestParseFormTolerance(t *testing.T) {
	out := parseForm("a=1&&b&c=x=y")
	if out["a"] != "1" || out["b"] != "" || out["c"] != "x=y" {
		t.Fatalf("out = %v", out)
	}
}

func TestSampleDataShape(t *testing.T) {
	l := eventloop.New(eventloop.Options{})
	db := mongosim.New(l)
	LoadSampleData(db, DataSpec{Customers: 5, FlightsPerSegment: 2})
	nAirports := len(Airports())
	wantSegments := nAirports * (nAirports - 1)
	if got := db.C(ColSegments).Len(); got != wantSegments {
		t.Errorf("segments = %d, want %d", got, wantSegments)
	}
	if got := db.C(ColFlights).Len(); got != wantSegments*2 {
		t.Errorf("flights = %d, want %d", got, wantSegments*2)
	}
	if got := db.C(ColCustomers).Len(); got != 5 {
		t.Errorf("customers = %d, want 5", got)
	}
}

func TestEscapeIsLossless(t *testing.T) {
	for _, s := range []string{"", "plain", "with space", "sym&=%+~", strings.Repeat("x%", 40)} {
		if got := unescape(escape(s)); got != s {
			t.Errorf("unescape(escape(%q)) = %q", s, got)
		}
	}
}

func TestConfigCountEndpoints(t *testing.T) {
	var customers, flights float64
	var unknown int
	serve(t, func(e *env) {
		e.call("GET", "/rest/api/config/countCustomers", "", "",
			func(status int, payload map[string]any) {
				customers, _ = payload["count"].(float64)
			})
		e.call("GET", "/rest/api/config/countFlights", "", "",
			func(status int, payload map[string]any) {
				flights, _ = payload["count"].(float64)
			})
		e.call("GET", "/rest/api/config/countNonsense", "", "",
			func(status int, payload map[string]any) { unknown = status })
	})
	if customers != 10 {
		t.Errorf("countCustomers = %v", customers)
	}
	nAirports := len(Airports())
	if want := float64(nAirports * (nAirports - 1) * 3); flights != want {
		t.Errorf("countFlights = %v, want %v", flights, want)
	}
	if unknown != 404 {
		t.Errorf("unknown count status = %d", unknown)
	}
}

func TestLoaderEndpointReloadsData(t *testing.T) {
	var status int
	var customersAfter float64
	e := serve(t, func(e *env) {
		e.call("GET", "/rest/api/loader/load?numCustomers=25", "", "",
			func(s int, payload map[string]any) {
				status = s
				e.call("GET", "/rest/api/config/countCustomers", "", "",
					func(s int, payload map[string]any) {
						customersAfter, _ = payload["count"].(float64)
					})
			})
	})
	if status != 200 {
		t.Fatalf("loader status = %d", status)
	}
	if customersAfter != 25 {
		t.Fatalf("customers after reload = %v, want 25", customersAfter)
	}
	if e.db.C(ColBookings).Len() != 0 {
		t.Fatal("bookings not wiped")
	}
}

func TestLoaderEndpointIgnoresBadCount(t *testing.T) {
	var customersAfter float64
	serve(t, func(e *env) {
		e.call("GET", "/rest/api/loader/load?numCustomers=bogus", "", "",
			func(s int, payload map[string]any) {
				e.call("GET", "/rest/api/config/countCustomers", "", "",
					func(s int, payload map[string]any) {
						customersAfter, _ = payload["count"].(float64)
					})
			})
	})
	if customersAfter != float64(DefaultDataSpec().Customers) {
		t.Fatalf("customers = %v, want default %d", customersAfter, DefaultDataSpec().Customers)
	}
}
