// Package loc captures and formats source-code locations. Async Graph
// nodes are labelled with the location of the originating API use, so the
// graph reader can map every node back to code ("L7: createServer" in the
// paper's figures).
package loc

import (
	"fmt"
	"maps"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Loc identifies a source position. The zero Loc means "internal library"
// and renders as "*", matching the paper's convention for nodes that
// originate inside Node.js internals.
type Loc struct {
	File string
	Line int
}

// Internal is the zero location used for runtime-internal callbacks.
var Internal = Loc{}

// pcCache memoizes program counter → Loc. A given PC always resolves to
// the same logical frame (the mapping lives in the binary's line
// tables), so the cache is sound; it is keyed on the raw PC from
// runtime.Callers and shared by every goroutine capturing locations.
var pcCache sync.Map // uintptr → Loc

// chain is Caller's cache key: the first three return addresses above
// Caller on the frame-pointer chain, zero past the chain's end.
type chain [3]uintptr

// chains is Caller's cache: chain → Loc, copied on write under
// chainsMu, so a lookup takes no lock and allocates nothing.
var (
	chainsMu sync.Mutex
	chains   atomic.Pointer[map[chain]Loc]
)

// Caller returns the location of the call to the function that invoked
// Caller: inside a facade method, the user's call of that method. It is
// what runtime.Callers reports three logical frames up (inlined calls
// expanded, wrapper frames elided), symbolized through the PC cache.
//
// Caller sits on every facade API's hot path — each timer, promise and
// I/O registration captures a location — and unwinding the stack there
// was the largest single cost of a schedule. So Caller first reads the
// three return addresses above it off the frame-pointer chain (getfp
// and six loads) and looks that chain up in a process-wide cache; a hit
// takes no lock and allocates nothing. On a miss Caller unwinds with
// runtime.Callers as before, and remember caches the answer under the
// chain only if runtime.CallersFrames, expanding the chain alone,
// yields a frame at the answer's PC, and so at its file:line.
//
// The check makes the cache sound. A return address fixes the logical
// frames of its physical frame (which calls were inlined there, and
// which of them are wrappers), so when the answer's frame lies within
// the chain, every stack with that chain has that answer. The answer
// lies beyond the chain only when every frame of the chain above the
// invoking function is a wrapper, as for a method value of a promoted
// method called through an interface; then no frame of the chain is at
// the answer's PC, and that call site unwinds on every call, which
// costs speed, never a label. The chain is three addresses long because
// a method value adds a wrapper frame: with two, no call through a
// method value would be cached. The argument needs every frame of the
// chain to keep a frame pointer, as the compiler does on amd64 and
// arm64 for every function that calls another, unless it is nosplit
// with no frame. Where getfp has no stub, the chain is empty and every
// call unwinds.
//
// Caller must stay a physical frame: getfp reads Caller's own frame
// pointer, and runtime.Callers' skip counts it.
//
//go:noinline
func Caller() Loc {
	var k chain
	fp := getfp()
	for i := 0; i < len(k) && fp != nil; i++ {
		k[i] = *(*uintptr)(unsafe.Add(fp, unsafe.Sizeof(uintptr(0))))
		fp = *(*unsafe.Pointer)(fp)
	}
	if m := chains.Load(); m != nil && k[0] != 0 {
		if l, ok := (*m)[k]; ok {
			return l
		}
	}
	// runtime.Callers counts itself as frame 0, Caller as 1 and the
	// invoking function as 2; both count logical (inline-expanded)
	// frames. pcs stays on the stack: the miss paths that hand PCs to
	// runtime.CallersFrames, which retains its slice, are out of line.
	var pcs [1]uintptr
	if runtime.Callers(3, pcs[:]) < 1 {
		return Internal
	}
	var l Loc
	if v, ok := pcCache.Load(pcs[0]); ok {
		l = v.(Loc)
	} else {
		l = resolvePC(pcs[0])
	}
	if k[0] != 0 {
		remember(k, pcs[0], l)
	}
	return l
}

// resolvePC symbolizes one PC and fills the cache — the miss path of
// Caller, kept out of line so Caller's own PC buffer never escapes:
// runtime.CallersFrames retains the slice it is given, and escape
// analysis would otherwise heap-allocate the buffer on every call,
// cache hit or not.
//
//go:noinline
func resolvePC(pc uintptr) Loc {
	pcs := [1]uintptr{pc}
	frame, _ := runtime.CallersFrames(pcs[:]).Next()
	if frame.PC == 0 {
		return Internal
	}
	l := Loc{File: filepath.Base(frame.File), Line: frame.Line}
	pcCache.Store(pc, l)
	return l
}

// remember caches l, the answer runtime.Callers unwound to the logical
// frame at pc, under k if runtime.CallersFrames expands k alone into a
// frame at pc. CallersFrames reports every frame at one less than the
// PC runtime.Callers records for it, and derives its file:line from
// that PC alone. See Caller for why the check makes the cache sound.
//
//go:noinline
func remember(k chain, pc uintptr, l Loc) {
	n := 0
	for n < len(k) && k[n] != 0 {
		n++
	}
	frames := runtime.CallersFrames(k[:n])
	for more := true; more; {
		var f runtime.Frame
		f, more = frames.Next()
		if f.PC+1 == pc {
			store(k, l)
			return
		}
	}
}

// store adds k → l to the chain cache, copying the map so lookups never
// lock.
func store(k chain, l Loc) {
	chainsMu.Lock()
	defer chainsMu.Unlock()
	var m map[chain]Loc
	if old := chains.Load(); old != nil {
		if _, ok := (*old)[k]; ok {
			return
		}
		m = maps.Clone(*old)
	}
	if m == nil {
		m = make(map[chain]Loc)
	}
	m[k] = l
	chains.Store(&m)
}

// Here captures the immediate caller's location.
func Here() Loc { return Caller() }

// IsInternal reports whether the location refers to runtime internals.
func (l Loc) IsInternal() bool { return l.File == "" }

// String renders the location as "file:line" ("<internal>" for
// runtime-internal locations).
func (l Loc) String() string {
	if l.IsInternal() {
		return "*"
	}
	return fmt.Sprintf("%s:%d", l.File, l.Line)
}

// Parse inverts String: "file:line" becomes a Loc, "*" (and anything
// unparsable) becomes Internal. Graph logs store locations in rendered
// form; readers use Parse so a deserialized graph keeps location
// identity (fingerprints and warning keys compare rendered locations).
func Parse(s string) Loc {
	for i := len(s) - 1; i > 0; i-- {
		if s[i] == ':' {
			line := 0
			if _, err := fmt.Sscanf(s[i+1:], "%d", &line); err == nil && line > 0 {
				return Loc{File: s[:i], Line: line}
			}
			break
		}
	}
	return Internal
}

// Short renders the paper's node-name prefix: "L<line>" for user code,
// "*" for internals.
func (l Loc) Short() string {
	if l.IsInternal() {
		return "*"
	}
	return fmt.Sprintf("L%d", l.Line)
}
