package mongosim_test

import (
	"reflect"
	"testing"

	"asyncg/internal/acmeair"
	"asyncg/internal/eventloop"
	"asyncg/internal/loc"
	"asyncg/internal/mongosim"
	"asyncg/internal/vm"
)

// runOn runs program to completion on l.
func runOn(t *testing.T, l *eventloop.Loop, program func()) {
	t.Helper()
	main := vm.NewFunc("main", func([]vm.Value) vm.Value {
		program()
		return vm.Undefined
	})
	if err := l.Run(main); err != nil {
		t.Fatal(err)
	}
	if got := l.Uncaught(); len(got) != 0 {
		t.Fatalf("uncaught: %v", got)
	}
}

// then wraps f as a DB callback that fails the test on a DB error.
func then(t *testing.T, f func()) *vm.Function {
	return vm.NewFunc("then", func(args []vm.Value) vm.Value {
		if err := vm.Arg(args, 0); !vm.IsUndefined(err) {
			t.Errorf("db error: %v", err)
		}
		f()
		return vm.Undefined
	})
}

// mutate inserts into a new and a base collection, updates base
// documents (one field twice, so the undo log must replay backwards, and
// one field that did not exist), removes base documents, then wipes the
// sample collections and reloads them.
func mutate(t *testing.T, db *mongosim.DB) {
	customers := db.C(acmeair.ColCustomers)
	wipe := func(col string, next func()) {
		db.C(col).Remove(loc.Here(), ``, then(t, next))
	}
	db.C(acmeair.ColBookings).Insert(loc.Here(), mongosim.Document{"bookingId": "b1"}, then(t, func() {
		customers.Insert(loc.Here(), mongosim.Document{"username": "extra"}, then(t, func() {
			customers.Update(loc.Here(), `username == "uid1"`, mongosim.Document{"miles_ytd": 1, "nickname": "x"}, then(t, func() {
				customers.Update(loc.Here(), `username == "uid1"`, mongosim.Document{"miles_ytd": 2}, then(t, func() {
					db.C(acmeair.ColSegments).Remove(loc.Here(), `originPort == "SFO"`, then(t, func() {
						wipe(acmeair.ColCustomers, func() {
							wipe(acmeair.ColFlights, func() {
								wipe(acmeair.ColSegments, func() {
									acmeair.LoadSampleData(db, acmeair.DefaultDataSpec())
								})
							})
						})
					}))
				}))
			}))
		}))
	}))
}

// nextID runs one insert and returns the _id it was assigned.
func nextID(t *testing.T, l *eventloop.Loop, db *mongosim.DB) any {
	t.Helper()
	var id any
	runOn(t, l, func() {
		db.C(acmeair.ColBookings).Insert(loc.Here(), mongosim.Document{"bookingId": "b2"},
			vm.NewFunc("inserted", func(args []vm.Value) vm.Value {
				id = vm.Arg(args, 1).(mongosim.Document)["_id"]
				return vm.Undefined
			}))
	})
	return id
}

func TestSealedResetRestoresImage(t *testing.T) {
	fresh := mongosim.New(eventloop.New(eventloop.Options{}), mongosim.Options{})
	acmeair.LoadSampleData(fresh, acmeair.DefaultDataSpec())
	want := fresh.Contents()

	l := eventloop.New(eventloop.Options{TickLimit: 100_000})
	db := mongosim.New(l, mongosim.Options{})
	acmeair.LoadSampleData(db, acmeair.DefaultDataSpec())
	db.Seal()
	for run := 0; run < 2; run++ {
		runOn(t, l, func() { mutate(t, db) })
		if reflect.DeepEqual(db.Contents(), want) {
			t.Fatalf("run %d: mutations left the database unchanged", run)
		}
		l.Reset()
		if got := db.Contents(); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: reset did not restore the sealed image", run)
		}
	}
	if id := nextID(t, l, db); id != int64(741) {
		t.Errorf("first insert after reset got _id %v, want 741", id)
	}
}

func TestUnsealedResetEmpties(t *testing.T) {
	l := eventloop.New(eventloop.Options{TickLimit: 100_000})
	db := mongosim.New(l, mongosim.Options{})
	acmeair.LoadSampleData(db, acmeair.DefaultDataSpec())
	l.Reset()
	if got := db.Contents(); len(got) != 0 {
		t.Fatalf("unsealed reset kept %d collection(s)", len(got))
	}
	if id := nextID(t, l, db); id != int64(1) {
		t.Errorf("first insert after reset got _id %v, want 1", id)
	}
}
