package mongosim

import (
	"reflect"
	"testing"

	"asyncg/internal/eventloop"
)

// indexQueries are the queries the index tests check after every step:
// equality alone, under && on either side and nested, on a top-level
// and a dotted path, next to queries the index must not answer.
var indexQueries = []string{
	``,
	`k == "a"`,
	`k == "b" && n > 1`,
	`n > 1 && k == "c"`,
	`(n >= 0 && k == "a") && sub.x == "b"`,
	`sub.x == "a"`,
	`sub.x == "b" && n >= 0`,
	`sub.x == "b" || k == "a"`,
	`!(k == "a")`,
	`k == "zz"`,
	`k != "a"`,
}

// bruteFind is the reference answer: every document of c that q
// matches, in collection order.
func bruteFind(t testing.TB, c *Collection, q string) []Document {
	expr, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	var out []Document
	for _, doc := range c.docs {
		if expr.Match(doc) {
			out = append(out, doc)
		}
	}
	return out
}

// sameDocs reports whether a and b hold the same documents (by
// identity) in the same order.
func sameDocs(a, b []Document) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if reflect.ValueOf(a[i]).UnsafePointer() != reflect.ValueOf(b[i]).UnsafePointer() {
			return false
		}
	}
	return true
}

// checkQueries fails unless findSync answers every index query as the
// brute-force scan does.
func checkQueries(t testing.TB, c *Collection, step string) {
	t.Helper()
	for _, q := range indexQueries {
		got, err := c.findSync(q)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteFind(t, c, q); !sameDocs(got, want) {
			t.Fatalf("%s: query %q returned %d document(s) %v, a full scan %d %v", step, q, len(got), got, len(want), want)
		}
	}
}

// sealedFixture returns a loop and a sealed collection of eight
// documents whose k values repeat, are missing or are not strings, with
// a nested sub.x, plus a deep copy of the sealed contents.
func sealedFixture() (*eventloop.Loop, *Collection, []Document) {
	l := eventloop.New(eventloop.Options{})
	db := New(l)
	c := db.C("c")
	for i, k := range []any{"a", "b", "a", nil, "c", 7, "b", "a"} {
		doc := Document{"n": i, "sub": Document{"x": []string{"a", "b"}[i%2]}}
		if k != nil {
			doc["k"] = k
		}
		c.InsertSync(doc)
	}
	db.Seal()
	snapshot := make([]Document, len(c.docs))
	for i, doc := range c.docs {
		snapshot[i] = doc.Clone()
	}
	return l, c, snapshot
}

// TestIndexFallsBackAndRecovers walks the index through each condition
// that suspends it and the reset that restores it, checking every query
// against a full scan at each step.
func TestIndexFallsBackAndRecovers(t *testing.T) {
	l, c, snapshot := sealedFixture()
	checkQueries(t, c, "sealed")
	byValue := c.index["k"]
	if byValue == nil || c.index["sub.x"] == nil {
		t.Fatalf("equality queries built no index: %v", c.index)
	}
	if got := byValue["a"]; !reflect.DeepEqual(got, []int{0, 2, 7}) {
		t.Fatalf(`index["k"]["a"] = %v, want [0 2 7]`, got)
	}

	c.InsertSync(Document{"k": "a", "n": 9})
	checkQueries(t, c, "insert")
	if _, err := c.updateSync(`n == 1`, Document{"k": "a"}); err != nil {
		t.Fatal(err)
	}
	checkQueries(t, c, "update of an indexed path")
	if _, err := c.updateSync(`n == 2`, Document{"sub": Document{"x": "b"}}); err != nil {
		t.Fatal(err)
	}
	checkQueries(t, c, "update of a nested path's parent")
	l.Reset()
	if !reflect.DeepEqual(c.docs, snapshot) || len(c.written) != 0 {
		t.Fatalf("reset left %v (written %v)", c.docs, c.written)
	}
	checkQueries(t, c, "reset after updates")

	if _, err := c.removeSync(`n == 3`); err != nil {
		t.Fatal(err)
	}
	if !c.imageRemoved {
		t.Fatal("removing an image document did not suspend the index")
	}
	checkQueries(t, c, "remove of an image document")
	l.Reset()
	checkQueries(t, c, "reset after a remove")
	if c.imageRemoved || reflect.ValueOf(c.index["k"]).UnsafePointer() != reflect.ValueOf(byValue).UnsafePointer() {
		t.Fatal("reset did not keep the index and clear the remove")
	}

	c.db.Seal()
	if c.index != nil {
		t.Fatal("Seal kept the index of the previous image")
	}
	checkQueries(t, c, "resealed")
}

// FuzzSealedFind decodes an op sequence — inserts, updates (of the
// indexed path, of a nested path's parent, with _id), removes (image
// documents included) and resets — and runs it on a sealed collection.
// After every op each index query must return the documents of a
// brute-force scan in the same order, a rejected update must change
// nothing, and every reset must restore the sealed contents.
func FuzzSealedFind(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1, 2, 3, 4})
	f.Add([]byte{1, 0, 0, 1, 1, 3, 4, 1, 2, 2})
	f.Add([]byte{2, 5, 3, 2, 0, 0, 4, 0, 1, 9, 1, 2, 1, 4})
	f.Add([]byte{0, 8, 1, 6, 3, 2, 6, 4, 1, 7, 5, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		l, c, snapshot := sealedFixture()
		vals := []string{"a", "b", "c"}
		for i := 0; i+1 < len(ops); i += 2 {
			arg := int(ops[i+1])
			where := []string{
				`n == ` + string(rune('0'+arg%10)),
				`k == "` + vals[arg%3] + `"`,
				`sub.x == "` + vals[arg%2] + `" && n > ` + string(rune('0'+arg%8)),
				``,
			}[arg/10%4]
			switch ops[i] % 5 {
			case 0:
				c.InsertSync(Document{"k": vals[arg%3], "n": arg % 10, "sub": Document{"x": vals[arg/3%2]}})
			case 1:
				set := []Document{
					{"k": vals[arg%3]},
					{"sub": Document{"x": vals[arg%2]}},
					{"n": arg % 10},
					{"_id": 99, "k": "zz", "n": 0},
				}[arg/40%4]
				before := bruteFind(t, c, where)
				undo := len(c.db.undo)
				n, err := c.updateSync(where, set)
				if _, setsID := set["_id"]; setsID {
					if len(before) > 0 && (err == nil || len(c.db.undo) != undo) {
						t.Fatalf("update of _id: err %v, %d undo entries logged", err, len(c.db.undo)-undo)
					}
				} else if err != nil || n != len(before) {
					t.Fatalf("update %q: n %d err %v, want %d", where, n, err, len(before))
				}
			case 2:
				if _, err := c.removeSync(where); err != nil {
					t.Fatal(err)
				}
			case 3:
				l.Reset()
				if !reflect.DeepEqual(c.docs, snapshot) {
					t.Fatalf("reset restored %v, want %v", c.docs, snapshot)
				}
			case 4:
				// A query op: the check below runs after every op.
			}
			checkQueries(t, c, "op "+string(rune('0'+ops[i]%5)))
		}
	})
}
