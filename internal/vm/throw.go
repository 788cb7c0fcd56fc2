package vm

import (
	"fmt"

	"asyncg/internal/loc"
)

// Thrown represents a simulated JavaScript exception in flight. Runtime
// code raises it with Throw and confines it with CatchThrown; a Thrown
// that escapes a top-level callback becomes an uncaught exception recorded
// by the event loop.
type Thrown struct {
	Value Value
	Loc   loc.Loc
}

// Error makes Thrown usable as a Go error for reporting.
func (t *Thrown) Error() string {
	return fmt.Sprintf("uncaught %s (thrown at %s)", ToString(t.Value), t.Loc)
}

// Throw raises a simulated exception carrying v. It does not return.
func Throw(v Value) {
	panic(&Thrown{Value: v, Loc: loc.Caller()})
}

// ThrowAt raises a simulated exception with an explicit origin location.
func ThrowAt(v Value, at loc.Loc) {
	panic(&Thrown{Value: v, Loc: at})
}

// CatchThrown runs f and captures a simulated exception if one escapes.
// Genuine Go panics (including runtime errors) are not intercepted: they
// indicate bugs in the simulator itself and must crash loudly.
func CatchThrown(f func()) (thrown *Thrown) {
	defer func() {
		if r := recover(); r != nil {
			t, ok := r.(*Thrown)
			if !ok {
				panic(r)
			}
			thrown = t
		}
	}()
	f()
	return nil
}
