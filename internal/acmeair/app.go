package acmeair

import (
	"fmt"
	"strings"

	"asyncg/internal/eventloop"
	"asyncg/internal/httpsim"
	"asyncg/internal/loc"
	"asyncg/internal/mongosim"
	"asyncg/internal/netio"
	"asyncg/internal/vm"
)

// Port is the port the AcmeAir server listens on.
const Port = 9080

// App is the AcmeAir server instance.
type App struct {
	loop   *eventloop.Loop
	net    *netio.Network
	db     *mongosim.DB
	server *httpsim.Server

	sessionSeq int
	bookingSeq int
	served     int64
	jsonBuf    []byte // respond's encoding buffer, reused across responses
}

// New assembles the application; call Listen from inside the loop's main
// program to start serving.
func New(l *eventloop.Loop, n *netio.Network, db *mongosim.DB) *App {
	return &App{loop: l, net: n, db: db}
}

// Served returns the number of requests that have received a response.
func (a *App) Served() int64 { return a.served }

// Listen starts the HTTP server.
func (a *App) Listen(at loc.Loc) error {
	app := a
	handler := vm.NewFuncAt("acmeairRouter", at, func(args []vm.Value) vm.Value {
		req := args[0].(*httpsim.IncomingMessage)
		res := args[1].(*httpsim.ServerResponse)
		httpsim.CollectBody(req, func(body []byte) {
			app.route(req, res, body)
		})
		return vm.Undefined
	})
	a.server = httpsim.CreateServer(a.net, at, handler)
	return a.server.Listen(at, Port)
}

// Close shuts the server down.
func (a *App) Close(at loc.Loc) {
	if a.server != nil {
		a.server.Close(at)
	}
}

// route dispatches one request to its endpoint handler.
func (a *App) route(req *httpsim.IncomingMessage, res *httpsim.ServerResponse, body []byte) {
	path, query := splitQuery(req.Path)
	form := parseForm(string(body))
	switch {
	case req.Method == "POST" && path == "/rest/api/login":
		a.login(res, form)
	case req.Method == "GET" && path == "/rest/api/login/logout":
		a.logout(res, parseForm(query))
	case req.Method == "POST" && path == "/rest/api/flights/queryflights":
		a.queryFlights(res, form)
	case req.Method == "POST" && path == "/rest/api/bookings/bookflights":
		a.bookFlights(req, res, form)
	case req.Method == "GET" && strings.HasPrefix(path, "/rest/api/bookings/byuser/"):
		a.bookingsByUser(req, res, strings.TrimPrefix(path, "/rest/api/bookings/byuser/"))
	case req.Method == "POST" && path == "/rest/api/bookings/cancelbooking":
		a.cancelBooking(req, res, form)
	case req.Method == "GET" && strings.HasPrefix(path, "/rest/api/customer/byid/"):
		a.customerByID(req, res, strings.TrimPrefix(path, "/rest/api/customer/byid/"))
	case req.Method == "POST" && strings.HasPrefix(path, "/rest/api/customer/byid/"):
		a.updateCustomer(req, res, strings.TrimPrefix(path, "/rest/api/customer/byid/"), form)
	case req.Method == "GET" && strings.HasPrefix(path, "/rest/api/config/count"):
		a.countConfig(res, strings.TrimPrefix(path, "/rest/api/config/count"))
	case req.Method == "GET" && path == "/rest/api/loader/load":
		a.loadData(res, parseForm(query))
	default:
		a.fail(res, 404, "no such endpoint: "+req.Method+" "+path)
	}
}

func splitQuery(path string) (string, string) {
	if idx := strings.IndexByte(path, '?'); idx >= 0 {
		return path[:idx], path[idx+1:]
	}
	return path, ""
}

// --- Response helpers ---

func (a *App) respond(res *httpsim.ServerResponse, status int, payload any) {
	a.served++
	data, err := appendJSON(a.jsonBuf[:0], payload)
	if a.jsonBuf = data; err != nil {
		data = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
		status = 500
	}
	res.SetHeader("content-type", "application/json")
	res.WriteHead(status).End(loc.Internal, data)
}

func (a *App) fail(res *httpsim.ServerResponse, status int, msg string) {
	a.respond(res, status, map[string]string{"error": msg})
}

// dbFail maps a DB error (callback err argument) to a 500.
func (a *App) dbFail(res *httpsim.ServerResponse, err vm.Value) bool {
	if vm.IsUndefined(err) || err == nil {
		return false
	}
	a.fail(res, 500, vm.ToString(err))
	return true
}

// cb wraps a Go closure as a DB callback function value.
func cb(name string, f func(err, res vm.Value)) *vm.Function {
	return vm.NewFunc(name, func(args []vm.Value) vm.Value {
		f(vm.Arg(args, 0), vm.Arg(args, 1))
		return vm.Undefined
	})
}

// validateSession checks the request's session header against the
// session store and calls next(customerID) on success. Endpoints under
// /bookings and /customer require a valid session, adding the
// per-request session lookup the real benchmark performs.
func (a *App) validateSession(req *httpsim.IncomingMessage, res *httpsim.ServerResponse, next func(customer string)) {
	sid := req.Headers["x-session"]
	if sid == "" {
		a.fail(res, 403, "missing session")
		return
	}
	a.db.C(ColSessions).FindOne(loc.Here(), `sessionid == "`+sid+`"`,
		cb("sessionCheck", func(err, doc vm.Value) {
			if a.dbFail(res, err) {
				return
			}
			if vm.IsUndefined(doc) {
				a.fail(res, 403, "invalid session")
				return
			}
			next(doc.(mongosim.Document)["customerid"].(string))
		}))
}

// --- Endpoints with callback data access; the flight query, booking
// and customer lookup use the promise interface (handlers_promise.go) ---

// login authenticates the customer and creates a session.
func (a *App) login(res *httpsim.ServerResponse, form map[string]string) {
	user, pass := form["login"], form["password"]
	a.db.C(ColCustomers).FindOne(loc.Here(), `username == "`+user+`"`,
		cb("loginLookup", func(err, doc vm.Value) {
			if a.dbFail(res, err) {
				return
			}
			if vm.IsUndefined(doc) || doc.(mongosim.Document)["password"] != pass {
				a.fail(res, 401, "invalid credentials")
				return
			}
			a.sessionSeq++
			sid := fmt.Sprintf("s%d", a.sessionSeq)
			a.db.C(ColSessions).Insert(loc.Here(), mongosim.Document{
				"sessionid":  sid,
				"customerid": user,
			}, cb("sessionInsert", func(err, _ vm.Value) {
				if a.dbFail(res, err) {
					return
				}
				a.respond(res, 200, map[string]string{"status": "logged in", "sessionid": sid})
			}))
		}))
}

// logout removes the customer's sessions.
func (a *App) logout(res *httpsim.ServerResponse, query map[string]string) {
	user := query["login"]
	a.db.C(ColSessions).Remove(loc.Here(), `customerid == "`+user+`"`,
		cb("logout", func(err, n vm.Value) {
			if a.dbFail(res, err) {
				return
			}
			a.respond(res, 200, map[string]any{"status": "logged out", "sessions": n})
		}))
}

// bookingsByUser lists the customer's bookings.
func (a *App) bookingsByUser(req *httpsim.IncomingMessage, res *httpsim.ServerResponse, user string) {
	a.validateSession(req, res, func(customer string) {
		a.db.C(ColBookings).FindWith(loc.Here(), `customerId == "`+user+`"`,
			mongosim.FindOptions{SortBy: "bookingId"},
			cb("bookingList", func(err, docs vm.Value) {
				if a.dbFail(res, err) {
					return
				}
				list, _ := docs.([]mongosim.Document)
				a.respond(res, 200, map[string]any{"bookings": list})
			}))
	})
}

// cancelBooking removes one booking.
func (a *App) cancelBooking(req *httpsim.IncomingMessage, res *httpsim.ServerResponse, form map[string]string) {
	a.validateSession(req, res, func(customer string) {
		number := form["number"]
		a.db.C(ColBookings).Remove(loc.Here(),
			`bookingId == "`+number+`" && customerId == "`+customer+`"`,
			cb("cancel", func(err, n vm.Value) {
				if a.dbFail(res, err) {
					return
				}
				a.respond(res, 200, map[string]any{"removed": n})
			}))
	})
}

// countConfig serves the benchmark's config endpoints
// (/rest/api/config/countCustomers and friends), which report collection
// sizes — the loader's sanity checks.
func (a *App) countConfig(res *httpsim.ServerResponse, what string) {
	col := map[string]string{
		"Customers":      ColCustomers,
		"Sessions":       ColSessions,
		"Flights":        ColFlights,
		"FlightSegments": ColSegments,
		"Bookings":       ColBookings,
	}[what]
	if col == "" {
		a.fail(res, 404, "unknown count "+what)
		return
	}
	a.db.C(col).Count(loc.Here(), ``, cb("count", func(err, n vm.Value) {
		if a.dbFail(res, err) {
			return
		}
		a.respond(res, 200, map[string]any{"count": n})
	}))
}

// loadData serves the benchmark's loader endpoint
// (/rest/api/loader/load?numCustomers=N): it wipes the customer-facing
// collections and regenerates the sample data set asynchronously,
// responding once the wipe completes.
func (a *App) loadData(res *httpsim.ServerResponse, query map[string]string) {
	spec := DefaultDataSpec()
	if n, ok := query["numCustomers"]; ok {
		count := 0
		for _, ch := range n {
			if ch < '0' || ch > '9' {
				count = 0
				break
			}
			count = count*10 + int(ch-'0')
		}
		if count > 0 {
			spec.Customers = count
		}
	}
	wipe := func(col string, next *vm.Function) {
		a.db.C(col).Remove(loc.Here(), ``, next)
	}
	app := a
	finish := cb("loadFinish", func(err, _ vm.Value) {
		if app.dbFail(res, err) {
			return
		}
		LoadSampleData(app.db, spec)
		app.respond(res, 200, map[string]any{
			"status":    "loaded",
			"customers": spec.Customers,
		})
	})
	// Chain the wipes; the final one triggers the reload.
	wipe(ColBookings, cb("w1", func(err, _ vm.Value) {
		wipe(ColSessions, cb("w2", func(err, _ vm.Value) {
			wipe(ColCustomers, cb("w3", func(err, _ vm.Value) {
				wipe(ColFlights, cb("w4", func(err, _ vm.Value) {
					wipe(ColSegments, finish)
				}))
			}))
		}))
	}))
}

// updateCustomer merges profile fields.
func (a *App) updateCustomer(req *httpsim.IncomingMessage, res *httpsim.ServerResponse, id string, form map[string]string) {
	a.validateSession(req, res, func(customer string) {
		set := mongosim.Document{}
		for k, v := range form {
			set[k] = v
		}
		a.db.C(ColCustomers).Update(loc.Here(), `username == "`+id+`"`, set,
			cb("customerUpdate", func(err, n vm.Value) {
				if a.dbFail(res, err) {
					return
				}
				a.respond(res, 200, map[string]any{"updated": n})
			}))
	})
}
