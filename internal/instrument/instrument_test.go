package instrument

import "testing"

func TestCategorize(t *testing.T) {
	cases := []struct {
		api  string
		want Category
	}{
		{"process.nextTick", CatScheduling},
		{"setTimeout", CatScheduling},
		{"clearImmediate", CatScheduling},
		{"emitter.on", CatEmitter},
		{"emitter.emit", CatEmitter},
		{"new EventEmitter", CatEmitter},
		{"promise.then", CatPromise},
		{"promise.create", CatPromise},
		{"Promise.all", CatPromise},
		{"await", CatPromise},
		{"async function", CatPromise},
		{"net.connect", CatIO},
		{"http.createServer", CatIO},
		{"socket.write", CatIO},
		{"server.listen", CatIO},
		{"db.users.find", CatIO},
		{"main", CatOther},
	}
	for _, tc := range cases {
		if got := Categorize(tc.api); got != tc.want {
			t.Errorf("Categorize(%q) = %v, want %v", tc.api, got, tc.want)
		}
	}
}

func TestCategoryStrings(t *testing.T) {
	for cat, want := range map[Category]string{
		CatScheduling: "scheduling",
		CatEmitter:    "emitter",
		CatPromise:    "promise",
		CatIO:         "io",
		CatOther:      "other",
	} {
		if cat.String() != want {
			t.Errorf("%v.String() = %q", int(cat), cat.String())
		}
	}
}
