package loc

import (
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// callers is the answer Caller's cache must reproduce, computed the way
// Caller computes it on a miss: runtime.Callers, skip logical frames
// above the function that calls callers (0: that function's own call
// of callers), symbolized with runtime.CallersFrames.
//
//go:noinline
func callers(skip int) Loc {
	var pcs [1]uintptr
	if runtime.Callers(skip+2, pcs[:]) < 1 {
		return Internal
	}
	f, _ := runtime.CallersFrames(pcs[:]).Next()
	return Loc{File: filepath.Base(f.File), Line: f.Line}
}

//go:noinline
func direct() Loc { return Caller() }

// inlinable calls only Caller, so the compiler inlines it into its
// callers, as it does most facade methods.
func inlinable() Loc { return Caller() }

type recv struct{}

//go:noinline
func (recv) noinline() Loc { return Caller() }

func (recv) inlinable() Loc { return Caller() }

// Method values: calling one goes through a compiler-generated -fm
// wrapper, which runtime.Callers elides.
var (
	noinlineValue  = recv{}.noinline
	inlinableValue = recv{}.inlinable
)

type inner struct{}

//go:noinline
func (inner) promoted() Loc { return Caller() }

type outer struct{ inner }

type promoter interface{ promoted() Loc }

// viaInterface calls inner.promoted through the wrapper the compiler
// generates for outer's method set.
var viaInterface promoter = &outer{}

// deepValue is a method value of that interface method: a call goes
// through two wrappers (promoter.promoted-fm, then (*outer).promoted)
// before inner.promoted calls Caller, so the answer lies beyond the
// three-address chain.
var deepValue = viaInterface.promoted

//go:noinline
func recurse(n int) (got, want Loc) {
	if n > 0 {
		return recurse(n - 1)
	}
	return Caller(), callers(1)
}

func deferred() (got, want Loc) {
	defer func() { got, want = Caller(), callers(1) }()
	return
}

func goroutineEntry() (got, want Loc) {
	ch := make(chan [2]Loc)
	go func() { ch <- [2]Loc{Caller(), callers(1)} }()
	r := <-ch
	return r[0], r[1]
}

// callerShapes are the call shapes Caller's chain key must tell apart:
// each returns Caller's answer and callers' answer for the same call.
// The method-value shapes call one method value from two lines, which
// only a chain that reaches past the wrappers tells apart; deep marks
// the shapes whose answer lies beyond the chain, which Caller must
// never cache.
var callerShapes = []struct {
	name string
	call func() (got, want Loc)
	deep bool
}{
	{name: "direct", call: func() (Loc, Loc) { return direct(), callers(0) }},
	{name: "Here", call: func() (Loc, Loc) { return Here(), callers(0) }},
	{name: "inlinable wrapper", call: func() (Loc, Loc) { return inlinable(), callers(0) }},
	{name: "method value, noinline, line A", call: func() (Loc, Loc) { return noinlineValue(), callers(0) }},
	{name: "method value, noinline, line B", call: func() (Loc, Loc) { return noinlineValue(), callers(0) }},
	{name: "method value, inlinable, line A", call: func() (Loc, Loc) { return inlinableValue(), callers(0) }},
	{name: "method value, inlinable, line B", call: func() (Loc, Loc) { return inlinableValue(), callers(0) }},
	{name: "method expression", call: func() (Loc, Loc) { return (*recv).noinline(&recv{}), callers(0) }},
	{name: "promoted method via interface", call: func() (Loc, Loc) { return viaInterface.promoted(), callers(0) }},
	{name: "recursion, depth 1", call: func() (Loc, Loc) { return recurse(1) }},
	{name: "recursion, depth 2", call: func() (Loc, Loc) { return recurse(2) }},
	{name: "deferred closure", call: deferred},
	{name: "goroutine entry", call: goroutineEntry},
	{name: "method value via interface, line A", call: func() (Loc, Loc) { return deepValue(), callers(0) }, deep: true},
	{name: "method value via interface, line B", call: func() (Loc, Loc) { return deepValue(), callers(0) }, deep: true},
}

// cached is the number of chains Caller has cached.
func cached() int {
	if m := chains.Load(); m != nil {
		return len(*m)
	}
	return 0
}

// TestCallerShapes checks Caller against runtime.Callers on every call
// shape, twice: the first call unwinds and caches its chain, the second
// is a cache hit. Where getfp has a stub, each shape's first call must
// add exactly one chain and its second none — a shape that never
// caches would unwind on every call — except that a deep shape's calls
// add none.
func TestCallerShapes(t *testing.T) {
	chains.Store(nil)
	haveFP := getfp() != nil
	for _, s := range callerShapes {
		for i := 0; i < 2; i++ {
			before := cached()
			got, want := s.call()
			if got != want || got.IsInternal() {
				t.Errorf("%s, call %d: Caller() = %v, runtime.Callers says %v", s.name, i+1, got, want)
			}
			wantAdded := 0
			if i == 0 && !s.deep {
				wantAdded = 1
			}
			if added := cached() - before; haveFP && added != wantAdded {
				t.Errorf("%s, call %d: cached %d chains, want %d", s.name, i+1, added, wantAdded)
			}
		}
	}
}

// TestCallerConcurrent captures from several goroutines at once, so
// under -race misses store chains while other goroutines look them up.
func TestCallerConcurrent(t *testing.T) {
	chains.Store(nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, s := range callerShapes {
					if got, want := s.call(); got != want {
						t.Errorf("%s: Caller() = %v, runtime.Callers says %v", s.name, got, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestCallerHitAllocs: a cache hit allocates nothing.
func TestCallerHitAllocs(t *testing.T) {
	if getfp() == nil {
		t.Skip("no frame-pointer stub on " + runtime.GOARCH)
	}
	direct() // cache the chain
	if n := testing.AllocsPerRun(100, func() { direct() }); n != 0 {
		t.Errorf("cache hit allocates %.1f times", n)
	}
}
