package mongosim

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func mustMatch(t *testing.T, query string, doc Document, want bool) {
	t.Helper()
	e, err := Compile(query)
	if err != nil {
		t.Fatalf("Compile(%q): %v", query, err)
	}
	if got := e.Match(doc); got != want {
		t.Fatalf("Match(%q, %v) = %v, want %v", query, doc, got, want)
	}
}

func TestCompileComparisons(t *testing.T) {
	doc := Document{"price": 450, "from": "SFO", "firstClass": true}
	cases := []struct {
		q    string
		want bool
	}{
		{`price == 450`, true},
		{`price != 450`, false},
		{`price < 500`, true},
		{`price <= 450`, true},
		{`price > 450`, false},
		{`price >= 451`, false},
		{`from == "SFO"`, true},
		{`from == 'SFO'`, true},
		{`from != "JFK"`, true},
		{`from ~ "SF"`, true},
		{`from ~ "LA"`, false},
		{`firstClass == true`, true},
		{`firstClass != true`, false},
	}
	for _, tc := range cases {
		mustMatch(t, tc.q, doc, tc.want)
	}
}

func TestCompileBooleanStructure(t *testing.T) {
	doc := Document{"a": 1, "b": 2}
	cases := []struct {
		q    string
		want bool
	}{
		{`a == 1 && b == 2`, true},
		{`a == 1 && b == 3`, false},
		{`a == 9 || b == 2`, true},
		{`a == 9 || b == 9`, false},
		{`!(a == 9)`, true},
		{`!(a == 1)`, false},
		{`(a == 9 || b == 2) && a == 1`, true},
		{`a == 1 && b == 2 || a == 9`, true}, // && binds tighter than ||
		{`true`, true},
		{`false`, false},
		{`!false`, true},
	}
	for _, tc := range cases {
		mustMatch(t, tc.q, doc, tc.want)
	}
}

func TestEmptyQueryMatchesAll(t *testing.T) {
	mustMatch(t, "", Document{"x": 1}, true)
	mustMatch(t, "   ", Document{}, true)
}

func TestDottedPaths(t *testing.T) {
	doc := Document{"addr": Document{"city": "Lugano", "zip": 6900}}
	mustMatch(t, `addr.city == "Lugano"`, doc, true)
	mustMatch(t, `addr.zip == 6900`, doc, true)
	mustMatch(t, `addr.country == "CH"`, doc, false)
}

func TestMissingFieldNeverMatches(t *testing.T) {
	mustMatch(t, `ghost == 1`, Document{"x": 1}, false)
	mustMatch(t, `ghost != 1`, Document{"x": 1}, false) // mongo-style: absent ≠ comparable
}

func TestTypeMismatchNeverMatches(t *testing.T) {
	doc := Document{"x": "string"}
	mustMatch(t, `x == 5`, doc, false)
	mustMatch(t, `x < 5`, doc, false)
}

func TestNumericTypesCoerce(t *testing.T) {
	for _, v := range []any{int(7), int32(7), int64(7), float32(7), float64(7)} {
		mustMatch(t, `x == 7`, Document{"x": v}, true)
	}
}

func TestNegativeNumbers(t *testing.T) {
	mustMatch(t, `x == -3`, Document{"x": -3}, true)
	mustMatch(t, `x < -1`, Document{"x": -3}, true)
}

func TestStringEscapes(t *testing.T) {
	mustMatch(t, `x == "a\"b"`, Document{"x": `a"b`}, true)
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		`price =`,
		`price = 5`,
		`== 5`,
		`price == `,
		`(price == 5`,
		`price == 5)`,
		`price & 5`,
		`price | 5`,
		`price == "unterminated`,
		`price == 5 extra`,
		`price === 5`,
		`firstClass > true`,
		`$ == 1`,
	}
	for _, q := range bad {
		if _, err := Compile(q); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", q)
		}
	}
}

func TestExprStringRendersAndReparses(t *testing.T) {
	queries := []string{
		`a == 1 && b == 2`,
		`a == 9 || !(b < 3)`,
		`name ~ "fred" && age >= 21`,
		`ok == true`,
	}
	for _, q := range queries {
		e, err := Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Compile(e.String())
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", e.String(), q, err)
		}
		if again.String() != e.String() {
			t.Fatalf("not a fixed point: %q → %q", e.String(), again.String())
		}
	}
}

// Property: rendering a compiled expression and re-compiling it yields
// semantically identical matching on arbitrary numeric documents.
func TestQuickRenderRoundTripSemantics(t *testing.T) {
	f := func(a, b, threshold int8) bool {
		doc := Document{"a": int(a), "b": int(b)}
		q := "a <= " + itoa(int(threshold)) + " || b > " + itoa(int(threshold))
		e1, err := Compile(q)
		if err != nil {
			return false
		}
		e2, err := Compile(e1.String())
		if err != nil {
			return false
		}
		return e1.Match(doc) == e2.Match(doc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: De Morgan — !(p && q) matches exactly when !p || !q does.
func TestQuickDeMorgan(t *testing.T) {
	f := func(a, b int8) bool {
		doc := Document{"a": int(a), "b": int(b)}
		lhs := MustCompile(`!(a > 0 && b > 0)`)
		rhs := MustCompile(`!(a > 0) || !(b > 0)`)
		return lhs.Match(doc) == rhs.Match(doc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: string containment query agrees with strings.Contains.
func TestQuickContains(t *testing.T) {
	f := func(hay, needle string) bool {
		if strings.ContainsAny(needle, `"\`) || strings.ContainsAny(hay, `"\`) {
			return true // quoting edge cases covered elsewhere
		}
		doc := Document{"s": hay}
		e, err := Compile(`s ~ "` + needle + `"`)
		if err != nil {
			return false
		}
		return e.Match(doc) == strings.Contains(hay, needle)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func itoa(n int) string {
	if n < 0 {
		return "-" + itoa(-n)
	}
	if n < 10 {
		return string(rune('0' + n))
	}
	return itoa(n/10) + string(rune('0'+n%10))
}

func TestMustCompilePanicsOnBadQuery(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCompile did not panic")
		}
	}()
	MustCompile(`broken ==`)
}

// splitGet is the reference path walk Get must agree with: split the
// path on every dot and resolve the parts in order.
func splitGet(d Document, path string) (any, bool) {
	cur := any(d)
	for _, part := range strings.Split(path, ".") {
		m, ok := cur.(Document)
		if !ok {
			mm, ok := cur.(map[string]any)
			if !ok {
				return nil, false
			}
			m = Document(mm)
		}
		v, ok := m[part]
		if !ok {
			return nil, false
		}
		cur = v
	}
	return cur, true
}

func TestDocumentGetMatchesSplitWalk(t *testing.T) {
	doc := Document{
		"":  "empty key",
		"a": Document{"b": 1, "": Document{"b": 2}},
		"s": "scalar",
		"m": map[string]any{"x": 3},
	}
	for _, path := range []string{"", "a", "a.b", "a..b", "a.", "missing", "a.missing", "s.x", "m.x"} {
		got, gotOK := doc.Get(path)
		want, wantOK := splitGet(doc, path)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Errorf("Get(%q) = %v, %v; split walk gives %v, %v", path, got, gotOK, want, wantOK)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { doc.Get("a..b") }); allocs != 0 {
		t.Errorf("Get allocates %.0f times per call, want 0", allocs)
	}
}

func TestDocumentClone(t *testing.T) {
	orig := Document{"a": 1, "nested": Document{"b": 2}}
	cp := orig.Clone()
	cp["a"] = 99
	cp["nested"].(Document)["b"] = 99
	if orig["a"] != 1 || orig["nested"].(Document)["b"] != 2 {
		t.Fatalf("clone aliases original: %v", orig)
	}
}
