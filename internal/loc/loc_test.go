package loc

import "testing"

func TestHereCapturesThisFile(t *testing.T) {
	l := Here()
	if l.File != "loc_test.go" || l.Line == 0 {
		t.Fatalf("Here() = %v", l)
	}
}

func TestCallerSkips(t *testing.T) {
	inner := func() Loc { return Caller() } // captures inner's caller
	l := inner()
	if l.File != "loc_test.go" {
		t.Fatalf("Caller() = %v", l)
	}
}

func TestInternalRendering(t *testing.T) {
	if !Internal.IsInternal() {
		t.Fatal("Internal not internal")
	}
	if Internal.String() != "*" || Internal.Short() != "*" {
		t.Fatalf("internal renders as %q / %q", Internal.String(), Internal.Short())
	}
}

func TestRendering(t *testing.T) {
	l := Loc{File: "app.go", Line: 42}
	if l.String() != "app.go:42" {
		t.Fatalf("String() = %q", l.String())
	}
	if l.Short() != "L42" {
		t.Fatalf("Short() = %q", l.Short())
	}
	if l.IsInternal() {
		t.Fatal("user loc reported internal")
	}
}

func TestLocIsComparable(t *testing.T) {
	a := Loc{File: "x.go", Line: 1}
	b := Loc{File: "x.go", Line: 1}
	if a != b {
		t.Fatal("equal locs compare unequal")
	}
}
