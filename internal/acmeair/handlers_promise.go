package acmeair

import (
	"fmt"

	"asyncg/internal/httpsim"
	"asyncg/internal/loc"
	"asyncg/internal/mongosim"
	"asyncg/internal/promise"
	"asyncg/internal/vm"
)

// The data-heavy endpoints use the promise interface, as in the paper's
// modified AcmeAir ("we slightly modify AcmeAir's source code to use the
// promise-version interface for mongodb access"). bookFlights uses
// async/await; the others use then-chains, so both ECMAScript styles are
// exercised.

// queryFlights finds the segment for the requested airport pair and
// replies with its flights; a route with no segment has none.
func (a *App) queryFlights(res *httpsim.ServerResponse, form map[string]string) {
	from, to := form["fromAirport"], form["toAirport"]
	flightsCol := a.db.C(ColFlights)
	a.db.C(ColSegments).FindOneP(loc.Here(),
		`originPort == "`+from+`" && destPort == "`+to+`"`).
		Then(loc.Here(), vm.NewFunc("segmentThen", func(args []vm.Value) vm.Value {
			seg := vm.Arg(args, 0)
			if vm.IsUndefined(seg) {
				return []mongosim.Document{}
			}
			sid := seg.(mongosim.Document)["segmentId"].(string)
			return flightsCol.FindP(loc.Here(), `flightSegmentId == "`+sid+`"`)
		}), nil).
		Then(loc.Here(), vm.NewFunc("flightsThen", func(args []vm.Value) vm.Value {
			flights, _ := args[0].([]mongosim.Document)
			a.respond(res, 200, map[string]any{"flights": flights})
			return vm.Undefined
		}), nil).
		Catch(loc.Here(), vm.NewFunc("queryErr", func(args []vm.Value) vm.Value {
			a.fail(res, 500, vm.ToString(args[0]))
			return vm.Undefined
		}))
}

// bookFlights books a flight for the session's customer and credits
// miles, written with async/await.
func (a *App) bookFlights(req *httpsim.IncomingMessage, res *httpsim.ServerResponse, form map[string]string) {
	a.validateSession(req, res, func(customer string) {
		flightID := form["flightId"]
		app := a
		promise.Go(a.loop, loc.Here(), "bookFlightsP", func(aw *promise.Awaiter) vm.Value {
			flight := aw.Await(loc.Here(), app.db.C(ColFlights).FindOneP(loc.Here(), `flightId == "`+flightID+`"`))
			if vm.IsUndefined(flight) {
				app.fail(res, 404, "no such flight "+flightID)
				return vm.Undefined
			}
			app.bookingSeq++
			bid := fmt.Sprintf("b%d", app.bookingSeq)
			aw.Await(loc.Here(), app.db.C(ColBookings).InsertP(loc.Here(), mongosim.Document{
				"bookingId":  bid,
				"customerId": customer,
				"flightId":   flightID,
			}))
			aw.Await(loc.Here(), app.db.C(ColCustomers).UpdateP(loc.Here(),
				`username == "`+customer+`"`, mongosim.Document{"miles_ytd": 2000}))
			app.respond(res, 200, map[string]string{"bookingId": bid})
			return vm.Undefined
		}).Catch(loc.Here(), vm.NewFunc("bookErr", func(args []vm.Value) vm.Value {
			a.fail(res, 500, vm.ToString(args[0]))
			return vm.Undefined
		}))
	})
}

// customerByID returns a customer profile over a promise chain.
func (a *App) customerByID(req *httpsim.IncomingMessage, res *httpsim.ServerResponse, id string) {
	a.validateSession(req, res, func(customer string) {
		a.db.C(ColCustomers).FindOneP(loc.Here(), `username == "`+id+`"`).
			Then(loc.Here(), vm.NewFunc("customerThen", func(args []vm.Value) vm.Value {
				doc := vm.Arg(args, 0)
				if vm.IsUndefined(doc) {
					a.fail(res, 404, "no such customer "+id)
					return vm.Undefined
				}
				a.respond(res, 200, doc.(mongosim.Document))
				return vm.Undefined
			}), nil).
			Catch(loc.Here(), vm.NewFunc("customerErr", func(args []vm.Value) vm.Value {
				a.fail(res, 500, vm.ToString(args[0]))
				return vm.Undefined
			}))
	})
}
