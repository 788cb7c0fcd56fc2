// Package workload drives the AcmeAir server with a closed-loop client
// mix, substituting for the JMeter test suite the paper uses: "The
// measurements are collected with the JMeter test suite of AcmeAir
// simulating realistic workloads on the server" (§VII-B). Each simulated
// client logs in and then issues a weighted stream of requests,
// reusing its session; the driver counts completions, failures and
// per-operation totals, which the Fig. 6 harness turns into throughput
// and per-request API-usage numbers.
package workload

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"asyncg/internal/acmeair"
	"asyncg/internal/httpsim"
	"asyncg/internal/loc"
	"asyncg/internal/netio"
	"asyncg/internal/vm"
)

// Op enumerates the driver's request types.
type Op int

// Driver operations, mirroring the AcmeAir JMeter script.
const (
	OpLogin Op = iota
	OpQueryFlights
	OpBookFlight
	OpViewBookings
	OpCancelBooking
	OpViewCustomer
	OpUpdateCustomer
	OpLogout
	numOps
)

// String names the workload operation for logs and metrics.
func (o Op) String() string {
	switch o {
	case OpLogin:
		return "login"
	case OpQueryFlights:
		return "queryFlights"
	case OpBookFlight:
		return "bookFlight"
	case OpViewBookings:
		return "viewBookings"
	case OpCancelBooking:
		return "cancelBooking"
	case OpViewCustomer:
		return "viewCustomer"
	case OpUpdateCustomer:
		return "updateCustomer"
	case OpLogout:
		return "logout"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// defaultMix approximates the AcmeAir JMeter workload as weighted
// operations: flight queries dominate, bookings and profile operations
// follow.
var defaultMix = [...]struct {
	op     Op
	weight int
}{
	{OpQueryFlights, 45},
	{OpViewBookings, 12},
	{OpViewCustomer, 10},
	{OpUpdateCustomer, 5},
	{OpBookFlight, 10},
	{OpCancelBooking, 5},
	{OpLogin, 8},
	{OpLogout, 5},
}

// pickOp draws one operation from defaultMix.
func pickOp(r *rand.Rand) Op {
	total := 0
	for _, w := range defaultMix {
		total += w.weight
	}
	n := r.Intn(total)
	for _, w := range defaultMix {
		if n < w.weight {
			return w.op
		}
		n -= w.weight
	}
	return defaultMix[len(defaultMix)-1].op
}

// Options configures a driver run. The driver draws the default mix
// from a private source seeded with Seed; it never touches the global
// math/rand source.
type Options struct {
	Clients  int
	Requests int // total requests across all clients
	Seed     int64
}

// Stats accumulates driver-side results.
type Stats struct {
	Issued    int
	Completed int
	Failed    int // non-2xx responses or transport errors
	ByOp      map[string]int
	// Latencies holds one virtual-time duration per completed request
	// (request issue to response-body completion).
	Latencies []time.Duration
}

// AvgLatency returns the mean virtual latency of completed requests.
func (s Stats) AvgLatency() time.Duration {
	if len(s.Latencies) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s.Latencies {
		sum += d
	}
	return sum / time.Duration(len(s.Latencies))
}

// Percentile returns the p-th percentile latency (p in [0,100]).
func (s Stats) Percentile(p float64) time.Duration {
	if len(s.Latencies) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), s.Latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p / 100 * float64(len(sorted)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Driver issues the workload. Create one, then call Start from inside
// the loop's main program; when the loop drains, Stats holds the result.
type Driver struct {
	net  *netio.Network
	opts Options
	rng  *rand.Rand

	stats   Stats
	airport []string
	onDone  func()
}

// NewDriver creates a driver.
func NewDriver(n *netio.Network, opts Options) *Driver {
	if opts.Clients <= 0 {
		opts.Clients = 1
	}
	if opts.Requests <= 0 {
		opts.Requests = 100
	}
	return &Driver{
		net:     n,
		opts:    opts,
		rng:     rand.New(rand.NewSource(opts.Seed)),
		stats:   Stats{ByOp: make(map[string]int)},
		airport: acmeair.Airports(),
	}
}

// Stats returns the accumulated counters.
func (d *Driver) Stats() Stats { return d.stats }

// OnDone registers a callback invoked once every request has completed
// (e.g. to close the server).
func (d *Driver) OnDone(f func()) { d.onDone = f }

// Start launches the client state machines. Call from loop context.
func (d *Driver) Start() {
	for i := 0; i < d.opts.Clients; i++ {
		c := &client{
			d:    d,
			user: fmt.Sprintf("uid%d", i),
		}
		c.run(OpLogin) // every client starts by logging in
	}
}

// client is one closed-loop virtual user.
type client struct {
	d        *Driver
	user     string
	session  string
	flights  []string // flight ids from the last query
	bookings []string // booking ids available to cancel
}

// next picks and issues the client's next operation, if budget remains.
func (c *client) next() {
	d := c.d
	if d.stats.Issued >= d.opts.Requests {
		if d.stats.Completed >= d.opts.Requests && d.onDone != nil {
			done := d.onDone
			d.onDone = nil
			done()
		}
		return
	}
	op := pickOp(d.rng)
	// Session-dependent ops need a login first; cancels need a booking.
	if c.session == "" && op != OpLogin && op != OpQueryFlights && op != OpLogout {
		op = OpLogin
	}
	if op == OpCancelBooking && len(c.bookings) == 0 {
		op = OpBookFlight
	}
	if op == OpBookFlight && len(c.flights) == 0 {
		op = OpQueryFlights
	}
	c.run(op)
}

// run issues one request for op.
func (c *client) run(op Op) {
	d := c.d
	start := d.net.Loop().Now()
	d.stats.Issued++
	d.stats.ByOp[op.String()]++
	headers := map[string]string{}
	if c.session != "" {
		headers["x-session"] = c.session
	}
	var ropts httpsim.RequestOptions
	switch op {
	case OpLogin:
		ropts = httpsim.RequestOptions{
			Method: "POST", Path: "/rest/api/login",
			Body: []byte("login=" + c.user + "&password=password"),
		}
	case OpLogout:
		ropts = httpsim.RequestOptions{
			Method: "GET", Path: "/rest/api/login/logout?login=" + c.user,
		}
	case OpQueryFlights:
		from := d.airport[d.rng.Intn(len(d.airport))]
		to := d.airport[d.rng.Intn(len(d.airport))]
		for to == from {
			to = d.airport[d.rng.Intn(len(d.airport))]
		}
		ropts = httpsim.RequestOptions{
			Method: "POST", Path: "/rest/api/flights/queryflights",
			Body: []byte("fromAirport=" + from + "&toAirport=" + to),
		}
	case OpBookFlight:
		flight := c.flights[d.rng.Intn(len(c.flights))]
		ropts = httpsim.RequestOptions{
			Method: "POST", Path: "/rest/api/bookings/bookflights",
			Body: []byte("flightId=" + flight + "&userid=" + c.user),
		}
	case OpViewBookings:
		ropts = httpsim.RequestOptions{
			Method: "GET", Path: "/rest/api/bookings/byuser/" + c.user,
		}
	case OpCancelBooking:
		bid := c.bookings[len(c.bookings)-1]
		c.bookings = c.bookings[:len(c.bookings)-1]
		ropts = httpsim.RequestOptions{
			Method: "POST", Path: "/rest/api/bookings/cancelbooking",
			Body: []byte("number=" + bid + "&userid=" + c.user),
		}
	case OpViewCustomer:
		ropts = httpsim.RequestOptions{
			Method: "GET", Path: "/rest/api/customer/byid/" + c.user,
		}
	case OpUpdateCustomer:
		ropts = httpsim.RequestOptions{
			Method: "POST", Path: "/rest/api/customer/byid/" + c.user,
			Body: []byte("phoneNumber=919-555-0000"),
		}
	}
	ropts.Port = acmeair.Port
	ropts.Headers = headers

	cl := c
	req := httpsim.Request(d.net, loc.Here(), ropts, vm.NewFunc("clientResponse",
		func(args []vm.Value) vm.Value {
			resp := args[0].(*httpsim.IncomingMessage)
			httpsim.CollectBody(resp, func(body []byte) {
				d.stats.Latencies = append(d.stats.Latencies, d.net.Loop().Now()-start)
				cl.handle(op, resp.StatusCode, body)
			})
			return vm.Undefined
		}))
	req.On(loc.Internal, "error", vm.NewFuncAt("(clientError)", loc.Internal,
		func(args []vm.Value) vm.Value {
			d.stats.Completed++
			d.stats.Failed++
			cl.next()
			return vm.Undefined
		}))
}

// handle consumes one response and schedules the next operation.
func (c *client) handle(op Op, status int, body []byte) {
	d := c.d
	d.stats.Completed++
	if status < 200 || status >= 300 {
		d.stats.Failed++
		if status == 403 {
			c.session = "" // stale session: force re-login
		}
		c.next()
		return
	}
	switch op {
	case OpLogin:
		if sid := decodeResponse(body).SessionID; sid != "" {
			c.session = sid
		}
	case OpLogout:
		c.session = ""
	case OpQueryFlights:
		c.flights = c.flights[:0]
		for _, f := range decodeResponse(body).Flights {
			if f.FlightID != "" {
				c.flights = append(c.flights, f.FlightID)
			}
		}
	case OpBookFlight:
		if bid := decodeResponse(body).BookingID; bid != "" {
			c.bookings = append(c.bookings, bid)
		}
	}
	c.next()
}

// response holds the fields of a response body the client reads: the
// session a login opens, the flights a query lists and the booking a
// booking makes.
type response struct {
	SessionID string `json:"sessionid"`
	Flights   []struct {
		FlightID string `json:"flightId"`
	} `json:"flights"`
	BookingID string `json:"bookingId"`
}

// decodeResponse decodes the fields the client reads from a 2xx body.
// The server answers these operations with JSON objects whose fields
// have these types, so a body that fails to decode leaves them empty
// and the client carries on as it would with an empty answer.
func decodeResponse(body []byte) response {
	var r response
	_ = json.Unmarshal(body, &r)
	return r
}
