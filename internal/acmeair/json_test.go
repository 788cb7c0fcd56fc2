package acmeair

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"asyncg/internal/httpsim"
	"asyncg/internal/loc"
	"asyncg/internal/mongosim"
	"asyncg/internal/vm"
)

// marshalMatches fails unless appendJSON encodes v to json.Marshal's
// bytes.
func marshalMatches(t *testing.T, v any) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json.Marshal(%#v): %v", v, err)
	}
	got, err := appendJSON([]byte("prefix"), v)
	if err != nil {
		t.Fatalf("appendJSON(%#v): %v", v, err)
	}
	if !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("appendJSON(%#v)\n got %s\nwant %s", v, got[len("prefix"):], want)
	}
}

// jsonPayloads builds the values FuzzResponseJSON and
// TestAppendJSONMatchesMarshal encode: every supported type, alone and
// nested the ways AcmeAir responses nest them, from two strings, an
// integer and a flag.
func jsonPayloads(a, b string, n int64, flag bool) []any {
	doc := mongosim.Document{
		"_id": n, a: b, b: int(n), "ok": flag, "none": nil,
		"address": mongosim.Document{b: a, a: map[string]any{"list": []mongosim.Document{{a: b}}}},
	}
	return []any{
		a, int(n), n, flag, nil,
		map[string]string{a: b, b: a, "error": a + b},
		map[string]string(nil), map[string]any(nil), mongosim.Document(nil),
		doc,
		map[string]any{"flights": []mongosim.Document{doc, nil, {}}, "status": a},
		map[string]any{"bookings": []mongosim.Document(nil)},
		map[string]any{"flights": []mongosim.Document{}},
		[]mongosim.Document{doc},
	}
}

func TestAppendJSONMatchesMarshal(t *testing.T) {
	for _, c := range []struct {
		a, b string
		n    int64
	}{
		{"", "", 0},
		{"<b>&amp;</b>", "\u2028\u2029\x00\x1f\x7f\"\\/", -1},
		{"\xff\xfe", "h\xc3\xa9llo \xe2\x98\x83 \xe2\x80", math.MaxInt64},
		{"\b\f\n\r\t", "AA1-0", math.MinInt64},
		{"uid0", "\xed\xa0\x80 surrogate", 741},
	} {
		for _, v := range jsonPayloads(c.a, c.b, c.n, c.n%2 == 0) {
			marshalMatches(t, v)
		}
	}
	for _, v := range []any{1.5, []string{"x"}, map[string]any{"price": 1.5}, []mongosim.Document{{"seats": []int{1}}}} {
		if _, err := appendJSON(nil, v); err == nil {
			t.Errorf("appendJSON(%#v) encoded a type AcmeAir responses do not carry", v)
		}
	}
}

// FuzzResponseJSON: the response encoder writes json.Marshal's bytes for
// payloads built from any two strings, integer and flag.
func FuzzResponseJSON(f *testing.F) {
	f.Add("", "", int64(0), false)
	f.Add("<b>&amp;</b>", "\u2028\u2029\x00\x1f\x7f\"\\", int64(-1), true)
	f.Add("\xff\xfe", "h\xc3\xa9llo \xe2\x98\x83", int64(math.MaxInt64), false)
	f.Add("\b\f\n\r\t", "AA1-0", int64(741), true)
	f.Fuzz(func(t *testing.T, a, b string, n int64, flag bool) {
		for _, v := range jsonPayloads(a, b, n, flag) {
			marshalMatches(t, v)
		}
	})
}

// callRaw issues a request and hands the raw response to done.
func (e *env) callRaw(method, path, body, session string, done func(status int, body []byte)) {
	headers := map[string]string{}
	if session != "" {
		headers["x-session"] = session
	}
	httpsim.Request(e.n, loc.Here(), httpsim.RequestOptions{
		Port: Port, Method: method, Path: path,
		Headers: headers, Body: []byte(body),
	}, vm.NewFunc("testRawResp", func(args []vm.Value) vm.Value {
		resp := args[0].(*httpsim.IncomingMessage)
		httpsim.CollectBody(resp, func(b []byte) { done(resp.StatusCode, b) })
		return vm.Undefined
	}))
}

// find hands the documents of col matching query, sorted by sortBy when
// it is set, to next: an endpoint's expected payload read off the DB.
func (e *env) find(col, query, sortBy string, next func([]mongosim.Document)) {
	e.db.C(col).FindWith(loc.Here(), query, mongosim.FindOptions{SortBy: sortBy}, cb("find", func(_, docs vm.Value) {
		list, _ := docs.([]mongosim.Document)
		next(list)
	}))
}

// TestEndpointBodiesMatchMarshal sends one request to each endpoint, and
// to its error paths, in sequence on one server, and requires every
// response body to equal json.Marshal of the payload the endpoint
// answers with, read off the database after the response where it
// carries documents. The profile update stores HTML-sensitive text and
// U+2028, so the customer read after it exercises string escaping.
func TestEndpointBodiesMatchMarshal(t *testing.T) {
	const session = "s1"
	fixed := func(v any) func(*env, func(any)) {
		return func(_ *env, next func(any)) { next(v) }
	}
	steps := []struct {
		method, path, body string
		session            string
		status             int
		want               func(e *env, next func(any))
	}{
		{"POST", "/rest/api/login", "login=uid0&password=password", "", 200,
			fixed(map[string]string{"status": "logged in", "sessionid": session})},
		{"POST", "/rest/api/login", "login=uid0&password=nope", "", 401,
			fixed(map[string]string{"error": "invalid credentials"})},
		{"POST", "/rest/api/flights/queryflights", "fromAirport=SFO&toAirport=JFK", "", 200,
			func(e *env, next func(any)) {
				e.find(ColFlights, `flightSegmentId == "AA1"`, "", func(docs []mongosim.Document) {
					next(map[string]any{"flights": docs})
				})
			}},
		{"POST", "/rest/api/flights/queryflights", "fromAirport=SFO&toAirport=SFO", "", 200,
			fixed(map[string]any{"flights": []mongosim.Document{}})},
		{"POST", "/rest/api/bookings/bookflights", "flightId=AA1-0&userid=uid0", session, 200,
			fixed(map[string]string{"bookingId": "b1"})},
		{"POST", "/rest/api/bookings/bookflights", "flightId=ZZZ-9&userid=uid0", session, 404,
			fixed(map[string]string{"error": "no such flight ZZZ-9"})},
		{"GET", "/rest/api/bookings/byuser/uid0", "", session, 200,
			func(e *env, next func(any)) {
				e.find(ColBookings, `customerId == "uid0"`, "bookingId", func(docs []mongosim.Document) {
					next(map[string]any{"bookings": docs})
				})
			}},
		{"GET", "/rest/api/customer/byid/uid0", "", session, 200,
			func(e *env, next func(any)) {
				e.find(ColCustomers, `username == "uid0"`, "", func(docs []mongosim.Document) { next(docs[0]) })
			}},
		{"POST", "/rest/api/customer/byid/uid0", "phoneNumber=919-555-0000&nickname=%3Cb%3E+%26+%E2%80%A8%FF", session, 200,
			fixed(map[string]any{"updated": 1})},
		{"GET", "/rest/api/customer/byid/uid0", "", session, 200,
			func(e *env, next func(any)) {
				e.find(ColCustomers, `username == "uid0"`, "", func(docs []mongosim.Document) { next(docs[0]) })
			}},
		{"GET", "/rest/api/customer/byid/nobody", "", session, 404,
			fixed(map[string]string{"error": "no such customer nobody"})},
		{"POST", "/rest/api/bookings/cancelbooking", "number=b1&userid=uid0", session, 200,
			fixed(map[string]any{"removed": 1})},
		{"GET", "/rest/api/bookings/byuser/uid0", "", session, 200,
			fixed(map[string]any{"bookings": []mongosim.Document(nil)})},
		{"GET", "/rest/api/bookings/byuser/uid0", "", "", 403,
			fixed(map[string]string{"error": "missing session"})},
		{"GET", "/rest/api/bookings/byuser/uid0", "", "s999", 403,
			fixed(map[string]string{"error": "invalid session"})},
		{"GET", "/rest/api/config/countCustomers", "", "", 200,
			fixed(map[string]any{"count": 10})},
		{"GET", "/rest/api/config/countBogus", "", "", 404,
			fixed(map[string]string{"error": "unknown count Bogus"})},
		{"GET", "/rest/api/nothing", "", "", 404,
			fixed(map[string]string{"error": "no such endpoint: GET /rest/api/nothing"})},
		{"GET", "/rest/api/login/logout?login=uid0", "", "", 200,
			fixed(map[string]any{"status": "logged out", "sessions": 1})},
		{"GET", "/rest/api/loader/load?numCustomers=5", "", "", 200,
			fixed(map[string]any{"status": "loaded", "customers": 5})},
	}
	done := 0
	serve(t, func(e *env) {
		var step func(i int)
		step = func(i int) {
			if i == len(steps) {
				return
			}
			s := steps[i]
			e.callRaw(s.method, s.path, s.body, s.session, func(status int, body []byte) {
				s.want(e, func(payload any) {
					want, err := json.Marshal(payload)
					if err != nil {
						t.Fatal(err)
					}
					if status != s.status || !bytes.Equal(body, want) {
						t.Errorf("%s %s: %d %s\nwant %d %s", s.method, s.path, status, body, s.status, want)
					}
					done++
					step(i + 1)
				})
			})
		}
		step(0)
	})
	if done != len(steps) {
		t.Fatalf("%d of %d steps answered", done, len(steps))
	}
}
