package trace

// Ring is a bounded event buffer: Push is O(1), memory is O(capacity),
// and the drop counter records how much of the stream fell outside the
// window. When full it drops the oldest event, so the trace keeps the
// most recent window — the right one for "what just happened?"
// debugging. It is not safe for concurrent use — probe hooks all run on
// the loop goroutine.
type Ring struct {
	buf     []Event
	head    int // index of the oldest retained event
	n       int // retained count
	dropped uint64
}

// NewRing creates a ring holding at most capacity events; capacity < 1
// is treated as 1.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Push records an event, overwriting the oldest one when full.
func (r *Ring) Push(ev Event) {
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = ev
		r.n++
		return
	}
	r.dropped++
	r.buf[r.head] = ev
	r.head = (r.head + 1) % len(r.buf)
}

// Len returns the number of retained events.
func (r *Ring) Len() int { return r.n }

// Cap returns the ring capacity.
func (r *Ring) Cap() int { return len(r.buf) }

// Dropped returns how many events were overwritten.
func (r *Ring) Dropped() uint64 { return r.dropped }

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	out := make([]Event, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.head+i)%len(r.buf)])
	}
	return out
}

// Reset empties the ring and zeroes the drop counter.
func (r *Ring) Reset() {
	r.head, r.n, r.dropped = 0, 0, 0
}
