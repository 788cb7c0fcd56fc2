package explore

import (
	"strconv"
	"strings"
	"testing"
)

func TestTargetByNameSpecs(t *testing.T) {
	ok := []struct {
		spec, wantName string
	}{
		{"acmeair", "acmeair[requests=50,clients=4,seed=1]"},
		{"acmeair:requests=3,clients=2,seed=7", "acmeair[requests=3,clients=2,seed=7]"},
		{"acmeair:requests=9", "acmeair[requests=9,clients=4,seed=1]"},
		{"case:SO-17894000", "SO-17894000 (buggy)"},
		{"SO-17894000", "SO-17894000 (buggy)"}, // bare-id CLI shorthand
	}
	for _, tc := range ok {
		tg, err := TargetByName(tc.spec)
		if err != nil {
			t.Errorf("TargetByName(%q): %v", tc.spec, err)
			continue
		}
		if tg.Name != tc.wantName {
			t.Errorf("TargetByName(%q).Name = %q, want %q", tc.spec, tg.Name, tc.wantName)
		}
	}

	bad := []string{
		"",
		"case:no-such-case",
		"no-such-case",
		"acmeair:requests=0",
		"acmeair:clients=-1",
		"acmeair:requests",
		"acmeair:bogus=1",
		"acmeair:requests=many",
		// 2^IntSize+1 overflows int; parsed as an int64 and converted,
		// it would wrap to 1 where int is 32 bits.
		"acmeair:requests=" + map[int]string{32: "4294967297", 64: "18446744073709551617"}[strconv.IntSize] + ",clients=2",
		"acmeair:clients=" + strconv.Itoa(maxAcmeAirClients+1),
	}
	for _, spec := range bad {
		if _, err := TargetByName(spec); err == nil {
			t.Errorf("TargetByName(%q) succeeded, want error", spec)
		}
	}
}

// TestTargetsAllResolve: the listing and the lookup agree — every name
// Targets advertises (the GET /v1/targets payload) resolves, and fixed
// variants only appear for cases that have one.
func TestTargetsAllResolve(t *testing.T) {
	infos := Targets()
	if len(infos) == 0 {
		t.Fatal("empty target registry")
	}
	if infos[0].Name != "acmeair" {
		t.Errorf("first target is %q, want acmeair", infos[0].Name)
	}
	sawFixed := false
	for _, info := range infos {
		if info.Title == "" {
			t.Errorf("target %q has no title", info.Name)
		}
		tg, err := TargetByName(info.Name)
		if err != nil {
			t.Errorf("listed target %q does not resolve: %v", info.Name, err)
			continue
		}
		if strings.HasSuffix(info.Name, ":fixed") {
			sawFixed = true
			if !strings.HasSuffix(tg.Name, "(fixed)") {
				t.Errorf("target %q resolved to %q, want a fixed variant", info.Name, tg.Name)
			}
		}
	}
	if !sawFixed {
		t.Error("no :fixed variants in the registry; the case studies include fixes")
	}
}
