package workload

import (
	"math/rand"
	"reflect"
	"testing"

	"asyncg/internal/acmeair"
	"asyncg/internal/eventloop"
	"asyncg/internal/instrument"
	"asyncg/internal/loc"
	"asyncg/internal/mongosim"
	"asyncg/internal/netio"
	"asyncg/internal/trace"
	"asyncg/internal/vm"
)

// runLoad boots AcmeAir and drives it with the given options, returning
// the driver and the loop.
func runLoad(t *testing.T, usePromises bool, opts Options) (*Driver, *eventloop.Loop) {
	t.Helper()
	l := eventloop.New(eventloop.Options{TickLimit: 5_000_000})
	n := netio.New(l, netio.Options{})
	db := mongosim.New(l, mongosim.Options{})
	acmeair.LoadSampleData(db, acmeair.DataSpec{Customers: 20, FlightsPerSegment: 3})
	app := acmeair.New(l, n, db, acmeair.Config{Port: opts.Port, UsePromises: usePromises})
	opts.Port = app.Port()
	d := NewDriver(n, opts)
	main := vm.NewFunc("main", func([]vm.Value) vm.Value {
		if err := app.Listen(loc.Here()); err != nil {
			t.Error(err)
			return vm.Undefined
		}
		d.Start()
		return vm.Undefined
	})
	if err := l.Run(main); err != nil {
		t.Fatal(err)
	}
	if got := l.Uncaught(); len(got) != 0 {
		t.Fatalf("uncaught: %v", got[0])
	}
	return d, l
}

func TestDriverCompletesAllRequests(t *testing.T) {
	d, _ := runLoad(t, false, Options{Clients: 4, Requests: 120, Seed: 1})
	s := d.Stats()
	if s.Completed != 120 || s.Issued != 120 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Failed != 0 {
		t.Fatalf("failed = %d (%+v)", s.Failed, s.ByOp)
	}
}

func TestDriverCompletesWithPromises(t *testing.T) {
	d, _ := runLoad(t, true, Options{Clients: 4, Requests: 120, Seed: 2})
	s := d.Stats()
	if s.Completed != 120 || s.Failed != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestMixCoversAllOperations(t *testing.T) {
	d, _ := runLoad(t, false, Options{Clients: 8, Requests: 600, Seed: 3})
	s := d.Stats()
	for _, op := range []Op{OpLogin, OpQueryFlights, OpBookFlight, OpViewBookings, OpCancelBooking, OpViewCustomer, OpUpdateCustomer, OpLogout} {
		if s.ByOp[op.String()] == 0 {
			t.Errorf("operation %s never issued: %+v", op, s.ByOp)
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	d1, l1 := runLoad(t, false, Options{Clients: 3, Requests: 90, Seed: 42})
	d2, l2 := runLoad(t, false, Options{Clients: 3, Requests: 90, Seed: 42})
	s1, s2 := d1.Stats(), d2.Stats()
	if len(s1.ByOp) != len(s2.ByOp) {
		t.Fatalf("op maps differ: %v vs %v", s1.ByOp, s2.ByOp)
	}
	for k, v := range s1.ByOp {
		if s2.ByOp[k] != v {
			t.Fatalf("op %s: %d vs %d", k, v, s2.ByOp[k])
		}
	}
	if l1.Tick() != l2.Tick() {
		t.Fatalf("tick counts differ: %d vs %d", l1.Tick(), l2.Tick())
	}
	if l1.Now() != l2.Now() {
		t.Fatalf("virtual clocks differ: %v vs %v", l1.Now(), l2.Now())
	}
}

func TestInjectedRandMatchesSeed(t *testing.T) {
	// An injected *rand.Rand built from the same source as Seed must
	// reproduce the Seed-based run exactly: harnesses that derive all
	// randomness from one master generator get byte-identical workloads.
	d1, l1 := runLoad(t, false, Options{Clients: 3, Requests: 90, Seed: 42})
	d2, l2 := runLoad(t, false, Options{Clients: 3, Requests: 90, Rand: rand.New(rand.NewSource(42))})
	s1, s2 := d1.Stats(), d2.Stats()
	if !reflect.DeepEqual(s1.ByOp, s2.ByOp) {
		t.Fatalf("op maps differ: %v vs %v", s1.ByOp, s2.ByOp)
	}
	if l1.Tick() != l2.Tick() || l1.Now() != l2.Now() {
		t.Fatalf("runs diverged: ticks %d/%d clocks %v/%v", l1.Tick(), l2.Tick(), l1.Now(), l2.Now())
	}
	// And an injected generator with a different seed must actually be
	// used (not silently replaced by the zero Seed field).
	d3, _ := runLoad(t, false, Options{Clients: 3, Requests: 90, Rand: rand.New(rand.NewSource(7))})
	if reflect.DeepEqual(s1.ByOp, d3.Stats().ByOp) {
		t.Fatal("different injected generators produced identical op mixes")
	}
}

func TestOnDoneFires(t *testing.T) {
	l := eventloop.New(eventloop.Options{TickLimit: 5_000_000})
	n := netio.New(l, netio.Options{})
	db := mongosim.New(l, mongosim.Options{})
	acmeair.LoadSampleData(db, acmeair.DataSpec{Customers: 5, FlightsPerSegment: 2})
	app := acmeair.New(l, n, db, acmeair.Config{})
	d := NewDriver(n, Options{Port: app.Port(), Clients: 2, Requests: 30, Seed: 4})
	fired := false
	d.OnDone(func() {
		fired = true
		app.Close(loc.Here())
	})
	main := vm.NewFunc("main", func([]vm.Value) vm.Value {
		if err := app.Listen(loc.Here()); err != nil {
			t.Error(err)
		}
		d.Start()
		return vm.Undefined
	})
	if err := l.Run(main); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("OnDone never fired")
	}
}

func TestFig6bStyleAPIUsageCounters(t *testing.T) {
	// The Fig. 6(b) measurement: per-request executions of nextTick,
	// emitter, and promise callbacks, with nextTick > emitter > promise.
	l := eventloop.New(eventloop.Options{TickLimit: 5_000_000})
	n := netio.New(l, netio.Options{})
	db := mongosim.New(l, mongosim.Options{})
	acmeair.LoadSampleData(db, acmeair.DataSpec{Customers: 20, FlightsPerSegment: 3})
	app := acmeair.New(l, n, db, acmeair.Config{UsePromises: true})
	metrics := trace.NewMetrics(l)
	l.Probes().Attach(metrics)
	requests := 200
	d := NewDriver(n, Options{Port: app.Port(), Clients: 4, Requests: requests, Seed: 5})
	main := vm.NewFunc("main", func([]vm.Value) vm.Value {
		if err := app.Listen(loc.Here()); err != nil {
			t.Error(err)
		}
		d.Start()
		return vm.Undefined
	})
	if err := l.Run(main); err != nil {
		t.Fatal(err)
	}
	var nextTick, emitter, promise int64
	for api, st := range metrics.Snapshot().PerAPI {
		switch {
		case instrument.IsNextTick(api):
			nextTick += st.Count
		case instrument.Categorize(api) == instrument.CatEmitter:
			emitter += st.Count
		case instrument.Categorize(api) == instrument.CatPromise:
			promise += st.Count
		}
	}
	perReq := func(v int64) float64 { return float64(v) / float64(requests) }
	nt, em, pr := perReq(nextTick), perReq(emitter), perReq(promise)
	t.Logf("per-request: nextTick=%.2f emitter=%.2f promise=%.2f", nt, em, pr)
	if !(nt > em && em > pr) {
		t.Fatalf("expected nextTick > emitter > promise, got %.2f / %.2f / %.2f", nt, em, pr)
	}
	if pr <= 0 {
		t.Fatal("no promise activity despite UsePromises")
	}
}

func TestLatencyStatistics(t *testing.T) {
	d, l := runLoad(t, false, Options{Clients: 4, Requests: 100, Seed: 9})
	s := d.Stats()
	if len(s.Latencies) != 100 {
		t.Fatalf("latency samples = %d", len(s.Latencies))
	}
	avg := s.AvgLatency()
	if avg <= 0 || avg > l.Now() {
		t.Fatalf("avg latency = %v (run virtual time %v)", avg, l.Now())
	}
	p50, p95 := s.Percentile(50), s.Percentile(95)
	if p50 > p95 {
		t.Fatalf("p50 %v > p95 %v", p50, p95)
	}
	if s.Percentile(0) > p50 || p95 > s.Percentile(100) {
		t.Fatal("percentiles not monotone")
	}
}
