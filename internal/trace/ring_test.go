package trace

import (
	"testing"
	"time"
)

func mkEvent(i int) Event {
	return Event{Seq: uint64(i + 1), Kind: KindCE, TS: time.Duration(i) * time.Microsecond}
}

func TestRingBelowCapacityKeepsEverything(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 5; i++ {
		r.Push(mkEvent(i))
	}
	if r.Len() != 5 || r.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d", r.Len(), r.Dropped())
	}
	evs := r.Events()
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
}

func TestRingDropOldestKeepsSuffix(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Push(mkEvent(i))
	}
	if r.Len() != 4 || r.Dropped() != 6 {
		t.Fatalf("len=%d dropped=%d", r.Len(), r.Dropped())
	}
	evs := r.Events()
	want := []uint64{7, 8, 9, 10}
	for i, ev := range evs {
		if ev.Seq != want[i] {
			t.Fatalf("events = %v, want seqs %v", evs, want)
		}
	}
}

// TestRingBoundsMemoryAtScale is the acceptance check: a 100k-event
// stream through a 1k ring retains exactly 1k events and accounts for
// every drop.
func TestRingBoundsMemoryAtScale(t *testing.T) {
	const total, capacity = 100_000, 1_000
	r := NewRing(capacity)
	for i := 0; i < total; i++ {
		r.Push(mkEvent(i))
	}
	if r.Len() != capacity {
		t.Fatalf("retained %d events, want %d", r.Len(), capacity)
	}
	if got := r.Dropped(); got != total-capacity {
		t.Fatalf("dropped %d, want %d", got, total-capacity)
	}
	if got := len(r.Events()); got != capacity {
		t.Fatalf("snapshot has %d events", got)
	}
}

func TestRingReset(t *testing.T) {
	r := NewRing(2)
	for i := 0; i < 5; i++ {
		r.Push(mkEvent(i))
	}
	r.Reset()
	if r.Len() != 0 || r.Dropped() != 0 || len(r.Events()) != 0 {
		t.Fatalf("reset left len=%d dropped=%d", r.Len(), r.Dropped())
	}
	r.Push(mkEvent(0))
	if r.Len() != 1 {
		t.Fatalf("push after reset: len=%d", r.Len())
	}
}

func TestRingTinyCapacity(t *testing.T) {
	r := NewRing(0) // clamped to 1
	if r.Cap() != 1 {
		t.Fatalf("cap = %d", r.Cap())
	}
	r.Push(mkEvent(0))
	r.Push(mkEvent(1))
	if r.Len() != 1 || r.Events()[0].Seq != 2 {
		t.Fatalf("events = %v", r.Events())
	}
}
