// Package httpsim implements a small HTTP/1.1 layer over the simulated
// network: createServer / request with 'request', 'response', 'data',
// 'end' and 'close' events, backed by a real incremental wire parser.
// It reproduces the emitter-based I/O chains of the paper's §II-A
// example (http-request → data receiving → ... → response), so Async
// Graphs of HTTP programs look like the paper's figures.
package httpsim

import (
	"fmt"
	"strconv"
	"strings"
)

// MessageKind distinguishes request and response wire messages.
type MessageKind int

// Wire message kinds.
const (
	RequestMessage MessageKind = iota
	ResponseMessage
)

// Head is a parsed start line plus headers.
type Head struct {
	Kind MessageKind
	// Request fields.
	Method string
	Path   string
	// Response fields.
	Status     int
	StatusText string

	Proto   string
	Headers map[string]string
}

// ContentLength returns the declared body length (0 when absent).
func (h *Head) ContentLength() int {
	v, ok := h.Headers["content-length"]
	if !ok {
		return 0
	}
	n, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// KeepAlive reports whether the peer asked to keep the connection open.
// HTTP/1.1 defaults to keep-alive unless "Connection: close" is present.
func (h *Head) KeepAlive() bool {
	c := strings.ToLower(h.Headers["connection"])
	if h.Proto == "HTTP/1.0" {
		return c == "keep-alive"
	}
	return c != "close"
}

// parser states.
const (
	stateStartLine = iota
	stateHeaders
	stateBody
)

// Parser is an incremental HTTP/1.1 message parser. Feed it network
// chunks in any fragmentation; it invokes OnHead once per message head,
// OnBody per body fragment, and OnComplete at each message end, then
// resets for the next pipelined message.
type Parser struct {
	// OnHead is called with the parsed start line and headers.
	OnHead func(*Head)
	// OnBody is called with each decoded body fragment.
	OnBody func([]byte)
	// OnComplete is called when the message (including body) ends.
	OnComplete func()

	buf       []byte
	state     int
	head      *Head
	remaining int
}

// NewParser creates a parser.
func NewParser() *Parser { return &Parser{} }

// Feed consumes a chunk. It returns an error on malformed input; the
// parser is then poisoned and further feeding keeps failing.
func (p *Parser) Feed(data []byte) error {
	if p.state < 0 {
		return fmt.Errorf("httpsim: parser previously failed")
	}
	p.buf = append(p.buf, data...)
	for {
		switch p.state {
		case stateStartLine:
			line, ok := p.takeLine()
			if !ok {
				return nil
			}
			if line == "" {
				continue // tolerate leading CRLF between messages
			}
			head, err := parseStartLine(line)
			if err != nil {
				p.state = -1
				return err
			}
			p.head = head
			p.state = stateHeaders
		case stateHeaders:
			line, ok := p.takeLine()
			if !ok {
				return nil
			}
			if line == "" {
				p.remaining = p.head.ContentLength()
				if p.OnHead != nil {
					p.OnHead(p.head)
				}
				if p.remaining == 0 {
					p.finishMessage()
					continue
				}
				p.state = stateBody
				continue
			}
			key, val, err := parseHeaderLine(line)
			if err != nil {
				p.state = -1
				return err
			}
			p.head.Headers[key] = val
		case stateBody:
			if len(p.buf) == 0 {
				return nil
			}
			n := p.remaining
			if n > len(p.buf) {
				n = len(p.buf)
			}
			chunk := p.buf[:n]
			p.buf = p.buf[n:]
			p.remaining -= n
			if p.OnBody != nil {
				p.OnBody(chunk)
			}
			if p.remaining == 0 {
				p.finishMessage()
			}
		}
	}
}

func (p *Parser) finishMessage() {
	p.head = nil
	p.state = stateStartLine
	if p.OnComplete != nil {
		p.OnComplete()
	}
}

// takeLine pops one CRLF-terminated line from the buffer.
func (p *Parser) takeLine() (string, bool) {
	idx := -1
	for i := 0; i+1 < len(p.buf); i++ {
		if p.buf[i] == '\r' && p.buf[i+1] == '\n' {
			idx = i
			break
		}
	}
	if idx < 0 {
		return "", false
	}
	line := string(p.buf[:idx])
	p.buf = p.buf[idx+2:]
	return line, true
}

// parseStartLine parses either "GET /x HTTP/1.1" or "HTTP/1.1 200 OK".
func parseStartLine(line string) (*Head, error) {
	first, rest, ok1 := strings.Cut(line, " ")
	second, third, ok2 := strings.Cut(rest, " ")
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("httpsim: malformed start line %q", line)
	}
	h := &Head{Headers: make(map[string]string)}
	if strings.HasPrefix(first, "HTTP/") {
		h.Kind = ResponseMessage
		h.Proto = first
		status, err := strconv.Atoi(second)
		if err != nil {
			return nil, fmt.Errorf("httpsim: malformed status in %q", line)
		}
		h.Status = status
		h.StatusText = third
		return h, nil
	}
	h.Kind = RequestMessage
	h.Method = first
	h.Path = second
	h.Proto = third
	if !strings.HasPrefix(h.Proto, "HTTP/") {
		return nil, fmt.Errorf("httpsim: malformed protocol in %q", line)
	}
	return h, nil
}

func parseHeaderLine(line string) (key, val string, err error) {
	idx := strings.IndexByte(line, ':')
	if idx <= 0 {
		return "", "", fmt.Errorf("httpsim: malformed header %q", line)
	}
	return strings.ToLower(strings.TrimSpace(line[:idx])), strings.TrimSpace(line[idx+1:]), nil
}

// EncodeRequest serializes a request message.
func EncodeRequest(method, path string, headers map[string]string, body []byte) []byte {
	var buf [8]header
	hs, declare, size := wireHeaders(buf[:0], headers, len(body))
	b := make([]byte, 0, len(method)+len(" ")+len(path)+len(" HTTP/1.1\r\n")+size+len(body))
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\n"...)
	return append(appendHeaders(b, hs, declare), body...)
}

// EncodeResponse serializes a response message.
func EncodeResponse(status int, headers map[string]string, body []byte) []byte {
	var buf [8]header
	hs, declare, size := wireHeaders(buf[:0], headers, len(body))
	text := StatusText(status)
	b := make([]byte, 0, len("HTTP/1.1 ")+decimalLen(status)+len(" ")+len(text)+len("\r\n")+size+len(body))
	b = append(b, "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(status), 10)
	b = append(b, ' ')
	b = append(b, text...)
	b = append(b, "\r\n"...)
	return append(appendHeaders(b, hs, declare), body...)
}

// header is one header line to encode.
type header struct{ key, val string }

// wireHeaders returns a message's header lines sorted by key, for
// deterministic wire bytes, in buf while they fit. declare is the body
// length a Content-Length line must state: the body's, unless the
// headers already carry one or the body is empty, when it is 0. size is
// the encoded length of the lines, that one and the blank line after.
func wireHeaders(buf []header, headers map[string]string, bodyLen int) (hs []header, declare, size int) {
	hs = buf
	declare = bodyLen
	size = len("\r\n")
	for k, v := range headers {
		hs = append(hs, header{k, v})
		for i := len(hs) - 1; i > 0 && hs[i].key < hs[i-1].key; i-- {
			hs[i], hs[i-1] = hs[i-1], hs[i]
		}
		if strings.EqualFold(k, "content-length") {
			declare = 0
		}
		size += len(k) + len(": ") + len(v) + len("\r\n")
	}
	if declare > 0 {
		size += len("Content-Length: ") + decimalLen(declare) + len("\r\n")
	}
	return hs, declare, size
}

// appendHeaders appends the header lines, a Content-Length line when
// declare is positive and the blank line that ends the head.
func appendHeaders(b []byte, hs []header, declare int) []byte {
	for _, h := range hs {
		b = append(b, h.key...)
		b = append(b, ": "...)
		b = append(b, h.val...)
		b = append(b, "\r\n"...)
	}
	if declare > 0 {
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, int64(declare), 10)
		b = append(b, "\r\n"...)
	}
	return append(b, "\r\n"...)
}

// decimalLen is the length of n written in decimal.
func decimalLen(n int) int {
	l := 1
	if n < 0 {
		l++
	}
	for ; n >= 10 || n <= -10; n /= 10 {
		l++
	}
	return l
}

// StatusText returns the reason phrase for common status codes.
func StatusText(status int) string {
	switch status {
	case 200:
		return "OK"
	case 201:
		return "Created"
	case 204:
		return "No Content"
	case 400:
		return "Bad Request"
	case 401:
		return "Unauthorized"
	case 403:
		return "Forbidden"
	case 404:
		return "Not Found"
	case 405:
		return "Method Not Allowed"
	case 500:
		return "Internal Server Error"
	case 503:
		return "Service Unavailable"
	default:
		return "Unknown"
	}
}
