package vm

import (
	"fmt"
	"sync/atomic"

	"asyncg/internal/loc"
)

// Impl is the Go implementation of a simulated function. Arguments arrive
// as a Value slice; the return value resolves to Undefined when the
// implementation has nothing to return (return vm.Undefined).
type Impl func(args []Value) Value

// Function is a first-class callback value. It carries a stable identity
// (pointer), a name, and the source location where it was created, which
// the Async Graph uses to label nodes ("L<line>" in the paper's figures).
type Function struct {
	ID   uint64
	Name string
	Loc  loc.Loc
	impl Impl
}

var funcSeq atomic.Uint64

// NewFunc creates a function value, capturing the caller's source location.
func NewFunc(name string, impl Impl) *Function {
	return NewFuncAt(name, loc.Caller(), impl)
}

// NewFuncAt creates a function value with an explicit source location.
// Library code uses it to attribute internal callbacks to the user call
// site rather than to the library.
func NewFuncAt(name string, at loc.Loc, impl Impl) *Function {
	return &Function{
		ID:   funcSeq.Add(1),
		Name: name,
		Loc:  at,
		impl: impl,
	}
}

// Invoke runs the function body directly, without announcing anything to
// probes. The runtime's dispatcher is responsible for probe events; user
// code should never call Invoke.
func (f *Function) Invoke(args []Value) Value {
	if f == nil || f.impl == nil {
		return Undefined
	}
	v := f.impl(args)
	if v == nil {
		return Undefined
	}
	return v
}

// String returns the function's diagnostic name ("<nil>" for a nil
// function).
func (f *Function) String() string {
	if f == nil {
		return "<nil func>"
	}
	name := f.Name
	if name == "" {
		name = "anonymous"
	}
	return fmt.Sprintf("%s@%s", name, f.Loc)
}

// Arg returns args[i], or Undefined when the argument is absent,
// mirroring JavaScript's permissive arity.
func Arg(args []Value, i int) Value {
	if i < 0 || i >= len(args) {
		return Undefined
	}
	if args[i] == nil {
		return Undefined
	}
	return args[i]
}
