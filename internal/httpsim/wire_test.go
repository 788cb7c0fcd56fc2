package httpsim

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// collectParser gathers parser callbacks for assertions.
type collectParser struct {
	p        *Parser
	heads    []*Head
	bodies   [][]byte
	complete int
}

func newCollectParser() *collectParser {
	c := &collectParser{p: NewParser()}
	c.p.OnHead = func(h *Head) { c.heads = append(c.heads, h) }
	c.p.OnBody = func(b []byte) { c.bodies = append(c.bodies, append([]byte(nil), b...)) }
	c.p.OnComplete = func() { c.complete++ }
	return c
}

func (c *collectParser) body() string {
	var all []byte
	for _, b := range c.bodies {
		all = append(all, b...)
	}
	return string(all)
}

func TestParseSimpleRequest(t *testing.T) {
	c := newCollectParser()
	wire := "POST /rest/api/login HTTP/1.1\r\nContent-Length: 9\r\nHost: x\r\n\r\nuser=fred"
	if err := c.p.Feed([]byte(wire)); err != nil {
		t.Fatal(err)
	}
	if len(c.heads) != 1 || c.complete != 1 {
		t.Fatalf("heads=%d complete=%d", len(c.heads), c.complete)
	}
	h := c.heads[0]
	if h.Kind != RequestMessage || h.Method != "POST" || h.Path != "/rest/api/login" {
		t.Fatalf("head = %+v", h)
	}
	if h.Headers["host"] != "x" {
		t.Fatalf("headers = %v", h.Headers)
	}
	if c.body() != "user=fred" {
		t.Fatalf("body = %q", c.body())
	}
}

func TestParseResponse(t *testing.T) {
	c := newCollectParser()
	wire := "HTTP/1.1 404 Not Found\r\nContent-Length: 4\r\n\r\ngone"
	if err := c.p.Feed([]byte(wire)); err != nil {
		t.Fatal(err)
	}
	h := c.heads[0]
	if h.Kind != ResponseMessage || h.Status != 404 || h.StatusText != "Not Found" {
		t.Fatalf("head = %+v", h)
	}
	if c.body() != "gone" {
		t.Fatalf("body = %q", c.body())
	}
}

func TestParseRequestWithoutBody(t *testing.T) {
	c := newCollectParser()
	if err := c.p.Feed([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	if c.complete != 1 || len(c.bodies) != 0 {
		t.Fatalf("complete=%d bodies=%d", c.complete, len(c.bodies))
	}
}

func TestParseByteAtATime(t *testing.T) {
	c := newCollectParser()
	wire := "POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"
	for i := 0; i < len(wire); i++ {
		if err := c.p.Feed([]byte{wire[i]}); err != nil {
			t.Fatal(err)
		}
	}
	if c.complete != 1 || c.body() != "hello" {
		t.Fatalf("complete=%d body=%q", c.complete, c.body())
	}
}

func TestParsePipelinedMessages(t *testing.T) {
	c := newCollectParser()
	wire := "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n" +
		"POST /c HTTP/1.1\r\nContent-Length: 2\r\n\r\nok"
	if err := c.p.Feed([]byte(wire)); err != nil {
		t.Fatal(err)
	}
	if len(c.heads) != 3 || c.complete != 3 {
		t.Fatalf("heads=%d complete=%d", len(c.heads), c.complete)
	}
	if c.heads[0].Path != "/a" || c.heads[1].Path != "/b" || c.heads[2].Path != "/c" {
		t.Fatalf("paths = %v %v %v", c.heads[0].Path, c.heads[1].Path, c.heads[2].Path)
	}
}

func TestParseMalformedStartLine(t *testing.T) {
	c := newCollectParser()
	if err := c.p.Feed([]byte("NONSENSE\r\n\r\n")); err == nil {
		t.Fatal("malformed start line accepted")
	}
	if err := c.p.Feed([]byte("GET / HTTP/1.1\r\n\r\n")); err == nil {
		t.Fatal("poisoned parser kept accepting input")
	}
}

func TestParseMalformedHeader(t *testing.T) {
	c := newCollectParser()
	if err := c.p.Feed([]byte("GET / HTTP/1.1\r\nbroken header\r\n\r\n")); err == nil {
		t.Fatal("malformed header accepted")
	}
}

func TestHeadKeepAlive(t *testing.T) {
	cases := []struct {
		proto, conn string
		want        bool
	}{
		{"HTTP/1.1", "", true},
		{"HTTP/1.1", "close", false},
		{"HTTP/1.1", "keep-alive", true},
		{"HTTP/1.0", "", false},
		{"HTTP/1.0", "keep-alive", true},
	}
	for _, tc := range cases {
		h := &Head{Proto: tc.proto, Headers: map[string]string{}}
		if tc.conn != "" {
			h.Headers["connection"] = tc.conn
		}
		if got := h.KeepAlive(); got != tc.want {
			t.Errorf("KeepAlive(%s, %q) = %v, want %v", tc.proto, tc.conn, got, tc.want)
		}
	}
}

func TestEncodeRequestRoundTrip(t *testing.T) {
	wire := EncodeRequest("POST", "/api", map[string]string{"x-token": "abc"}, []byte("payload"))
	c := newCollectParser()
	if err := c.p.Feed(wire); err != nil {
		t.Fatal(err)
	}
	h := c.heads[0]
	if h.Method != "POST" || h.Path != "/api" || h.Headers["x-token"] != "abc" {
		t.Fatalf("head = %+v", h)
	}
	if c.body() != "payload" {
		t.Fatalf("body = %q", c.body())
	}
}

func TestEncodeResponseRoundTrip(t *testing.T) {
	wire := EncodeResponse(201, map[string]string{"content-type": "application/json"}, []byte(`{"ok":1}`))
	c := newCollectParser()
	if err := c.p.Feed(wire); err != nil {
		t.Fatal(err)
	}
	h := c.heads[0]
	if h.Status != 201 || h.Headers["content-type"] != "application/json" {
		t.Fatalf("head = %+v", h)
	}
	if c.body() != `{"ok":1}` {
		t.Fatalf("body = %q", c.body())
	}
}

// TestQuickRoundTripAnyBody: property — any body survives an
// encode/parse round trip regardless of how the wire is fragmented.
func TestQuickRoundTripAnyBody(t *testing.T) {
	f := func(body []byte, cut uint8) bool {
		wire := EncodeRequest("POST", "/p", nil, body)
		c := newCollectParser()
		// Split the wire at an arbitrary point.
		split := int(cut) % (len(wire) + 1)
		if err := c.p.Feed(wire[:split]); err != nil {
			return false
		}
		if err := c.p.Feed(wire[split:]); err != nil {
			return false
		}
		return c.complete == 1 && bytes.Equal([]byte(c.body()), body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickHeadersRoundTrip: property — header maps with printable
// token keys survive the round trip.
func TestQuickHeadersRoundTrip(t *testing.T) {
	f := func(vals []string) bool {
		headers := make(map[string]string)
		for i, v := range vals {
			if i >= 8 {
				break
			}
			v = strings.Map(func(r rune) rune {
				if r < 0x20 || r > 0x7e || r == ':' {
					return 'x'
				}
				return r
			}, v)
			headers["x-h"+string(rune('a'+i))] = strings.TrimSpace(v)
		}
		wire := EncodeRequest("GET", "/", headers, nil)
		c := newCollectParser()
		if err := c.p.Feed(wire); err != nil {
			return false
		}
		if len(c.heads) != 1 {
			return false
		}
		for k, v := range headers {
			if c.heads[0].Headers[strings.ToLower(k)] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStatusTextCoverage(t *testing.T) {
	for _, code := range []int{200, 201, 204, 400, 401, 403, 404, 405, 500, 503} {
		if StatusText(code) == "Unknown" {
			t.Errorf("StatusText(%d) = Unknown", code)
		}
	}
	if StatusText(599) != "Unknown" {
		t.Error("unexpected text for 599")
	}
}

// fmtEncode is the fmt-based encoder the wire encoders replaced, kept as
// their reference: the start line, the headers in sorted key order as
// "key: value", a Content-Length for a non-empty body unless a header
// (in any case) sets one, a blank line and the body.
func fmtEncode(start string, headers map[string]string, body []byte) []byte {
	var b strings.Builder
	b.WriteString(start)
	keys := make([]string, 0, len(headers))
	for k := range headers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	seenCL := false
	for _, k := range keys {
		seenCL = seenCL || strings.EqualFold(k, "content-length")
		fmt.Fprintf(&b, "%s: %s\r\n", k, headers[k])
	}
	if !seenCL && len(body) > 0 {
		fmt.Fprintf(&b, "Content-Length: %d\r\n", len(body))
	}
	b.WriteString("\r\n")
	b.Write(body)
	return []byte(b.String())
}

// TestQuickEncodeMatchesFmtReference: property — both encoders write the
// reference's bytes for any method, path, status, header map (more
// headers than the encoders sort on the stack included, with and
// without a Content-Length of any case) and body, and size their buffer
// exactly.
func TestQuickEncodeMatchesFmtReference(t *testing.T) {
	f := func(method, path string, status int16, keys []string, clen uint8, body []byte) bool {
		headers := make(map[string]string)
		for i, k := range keys {
			headers[k] = path + string(rune('a'+i%26))
		}
		switch clen % 3 {
		case 1:
			headers["content-length"] = "0"
		case 2:
			headers["Content-Length"] = "7"
		}
		req := EncodeRequest(method, path, headers, body)
		resp := EncodeResponse(int(status), headers, body)
		return bytes.Equal(req, fmtEncode(fmt.Sprintf("%s %s HTTP/1.1\r\n", method, path), headers, body)) &&
			bytes.Equal(resp, fmtEncode(fmt.Sprintf("HTTP/1.1 %d %s\r\n", status, StatusText(int(status))), headers, body)) &&
			len(req) == cap(req) && len(resp) == cap(resp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	for _, status := range []int{0, 7, 200, -1, -404, math.MaxInt, math.MinInt} {
		got := EncodeResponse(status, nil, nil)
		if want := fmtEncode(fmt.Sprintf("HTTP/1.1 %d %s\r\n", status, StatusText(status)), nil, nil); !bytes.Equal(got, want) || len(got) != cap(got) {
			t.Errorf("status %d: %q (cap %d), want %q", status, got, cap(got), want)
		}
	}
}
