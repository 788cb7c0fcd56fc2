// Package mongosim simulates the MongoDB dependency of the AcmeAir
// benchmark: an in-memory document store with asynchronous access
// through the event loop, offering both the classic callback interface
// and the promise interface (the paper modified AcmeAir to use the
// promise-version mongodb interface to exercise AsyncG's promise
// tracking). Queries use a small expression language compiled by the
// lexer/parser in this file.
package mongosim

import (
	"fmt"
	"strconv"
	"strings"
)

// Document is one stored record.
type Document map[string]any

// Get resolves a (possibly dotted) field path. It walks the path in
// place rather than splitting it, so a lookup allocates nothing — every
// query scan calls it once per document.
func (d Document) Get(path string) (any, bool) {
	cur := any(d)
	for {
		part, rest, more := strings.Cut(path, ".")
		m, ok := cur.(Document)
		if !ok {
			if mm, ok2 := cur.(map[string]any); ok2 {
				m = Document(mm)
			} else {
				return nil, false
			}
		}
		v, ok := m[part]
		if !ok {
			return nil, false
		}
		cur = v
		if !more {
			return cur, true
		}
		path = rest
	}
}

// Clone deep-copies one level of the document (values are shared except
// nested Documents, which are cloned recursively).
func (d Document) Clone() Document {
	out := make(Document, len(d))
	for k, v := range d {
		if sub, ok := v.(Document); ok {
			out[k] = sub.Clone()
		} else {
			out[k] = v
		}
	}
	return out
}

// --- Query language ---
//
// Grammar:
//
//	expr    := or
//	or      := and ( "||" and )*
//	and     := unary ( "&&" unary )*
//	unary   := "!" unary | primary
//	primary := "(" expr ")" | path op literal | "true" | "false"
//	op      := "==" | "!=" | "<" | "<=" | ">" | ">=" | "~" (contains)
//	literal := number | quoted string | true | false
//	path    := ident ( "." ident )*

// tokKind enumerates lexer token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokOp     // comparison operators
	tokAndAnd // &&
	tokOrOr   // ||
	tokBang   // !
	tokLParen
	tokRParen
	tokBool
)

type token struct {
	kind tokKind
	text string
	pos  int
}

// lexer tokenizes a query string.
type lexer struct {
	src []byte
	pos int
}

func (lx *lexer) error(pos int, format string, args ...any) error {
	return fmt.Errorf("mongosim: query syntax error at %d: %s", pos, fmt.Sprintf(format, args...))
}

func (lx *lexer) next() (token, error) {
	for lx.pos < len(lx.src) && (lx.src[lx.pos] == ' ' || lx.src[lx.pos] == '\t') {
		lx.pos++
	}
	if lx.pos >= len(lx.src) {
		return token{kind: tokEOF, pos: lx.pos}, nil
	}
	start := lx.pos
	c := lx.src[lx.pos]
	switch {
	case c == '(':
		lx.pos++
		return token{kind: tokLParen, text: "(", pos: start}, nil
	case c == ')':
		lx.pos++
		return token{kind: tokRParen, text: ")", pos: start}, nil
	case c == '&':
		if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '&' {
			lx.pos += 2
			return token{kind: tokAndAnd, text: "&&", pos: start}, nil
		}
		return token{}, lx.error(start, "expected '&&'")
	case c == '|':
		if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '|' {
			lx.pos += 2
			return token{kind: tokOrOr, text: "||", pos: start}, nil
		}
		return token{}, lx.error(start, "expected '||'")
	case c == '!':
		if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '=' {
			lx.pos += 2
			return token{kind: tokOp, text: "!=", pos: start}, nil
		}
		lx.pos++
		return token{kind: tokBang, text: "!", pos: start}, nil
	case c == '=':
		if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '=' {
			lx.pos += 2
			return token{kind: tokOp, text: "==", pos: start}, nil
		}
		return token{}, lx.error(start, "expected '=='")
	case c == '<' || c == '>':
		op := string(c)
		lx.pos++
		if lx.pos < len(lx.src) && lx.src[lx.pos] == '=' {
			op += "="
			lx.pos++
		}
		return token{kind: tokOp, text: op, pos: start}, nil
	case c == '~':
		lx.pos++
		return token{kind: tokOp, text: "~", pos: start}, nil
	case c == '"' || c == '\'':
		quote := c
		lx.pos++
		var sb strings.Builder
		for lx.pos < len(lx.src) && lx.src[lx.pos] != quote {
			if lx.src[lx.pos] == '\\' && lx.pos+1 < len(lx.src) {
				lx.pos++
			}
			sb.WriteByte(lx.src[lx.pos])
			lx.pos++
		}
		if lx.pos >= len(lx.src) {
			return token{}, lx.error(start, "unterminated string")
		}
		lx.pos++ // closing quote
		return token{kind: tokString, text: sb.String(), pos: start}, nil
	case c >= '0' && c <= '9' || c == '-':
		lx.pos++
		for lx.pos < len(lx.src) && (lx.src[lx.pos] >= '0' && lx.src[lx.pos] <= '9' || lx.src[lx.pos] == '.') {
			lx.pos++
		}
		return token{kind: tokNumber, text: string(lx.src[start:lx.pos]), pos: start}, nil
	case isIdentStart(c):
		lx.pos++
		for lx.pos < len(lx.src) && isIdentPart(lx.src[lx.pos]) {
			lx.pos++
		}
		text := string(lx.src[start:lx.pos])
		if text == "true" || text == "false" {
			return token{kind: tokBool, text: text, pos: start}, nil
		}
		return token{kind: tokIdent, text: text, pos: start}, nil
	default:
		return token{}, lx.error(start, "unexpected character %q", string(c))
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool { return isIdentStart(c) || c >= '0' && c <= '9' || c == '.' }

// Expr is a compiled query expression.
type Expr interface {
	Match(doc Document) bool
	String() string
}

type boolLit bool

func (b boolLit) Match(Document) bool { return bool(b) }
func (b boolLit) String() string      { return strconv.FormatBool(bool(b)) }

type notExpr struct{ inner Expr }

func (n notExpr) Match(d Document) bool { return !n.inner.Match(d) }
func (n notExpr) String() string        { return "!(" + n.inner.String() + ")" }

type binExpr struct {
	or    bool
	left  Expr
	right Expr
}

func (b binExpr) Match(d Document) bool {
	if b.or {
		return b.left.Match(d) || b.right.Match(d)
	}
	return b.left.Match(d) && b.right.Match(d)
}

func (b binExpr) String() string {
	op := "&&"
	if b.or {
		op = "||"
	}
	return "(" + b.left.String() + " " + op + " " + b.right.String() + ")"
}

// cmpExpr compares a document field to a literal.
type cmpExpr struct {
	path string
	op   string
	num  float64
	str  string
	b    bool
	kind tokKind // literal kind
}

func (c cmpExpr) String() string {
	switch c.kind {
	case tokString:
		return fmt.Sprintf("%s %s %q", c.path, c.op, c.str)
	case tokBool:
		return fmt.Sprintf("%s %s %v", c.path, c.op, c.b)
	default:
		return fmt.Sprintf("%s %s %v", c.path, c.op, c.num)
	}
}

func (c cmpExpr) Match(d Document) bool {
	v, ok := d.Get(c.path)
	if !ok {
		return false
	}
	switch c.kind {
	case tokString:
		s, ok := v.(string)
		if !ok {
			return false
		}
		switch c.op {
		case "==":
			return s == c.str
		case "!=":
			return s != c.str
		case "~":
			return strings.Contains(s, c.str)
		case "<":
			return s < c.str
		case "<=":
			return s <= c.str
		case ">":
			return s > c.str
		case ">=":
			return s >= c.str
		}
	case tokBool:
		bv, ok := v.(bool)
		if !ok {
			return false
		}
		switch c.op {
		case "==":
			return bv == c.b
		case "!=":
			return bv != c.b
		}
	case tokNumber:
		n, ok := toFloat(v)
		if !ok {
			return false
		}
		switch c.op {
		case "==":
			return n == c.num
		case "!=":
			return n != c.num
		case "<":
			return n < c.num
		case "<=":
			return n <= c.num
		case ">":
			return n > c.num
		case ">=":
			return n >= c.num
		}
	}
	return false
}

func toFloat(v any) (float64, bool) {
	switch t := v.(type) {
	case int:
		return float64(t), true
	case int32:
		return float64(t), true
	case int64:
		return float64(t), true
	case float32:
		return float64(t), true
	case float64:
		return t, true
	default:
		return 0, false
	}
}

// parser is a recursive-descent parser over the token stream.
type parser struct {
	lx  *lexer
	cur token
}

// Compile parses a query expression. The empty query matches everything.
func Compile(query string) (Expr, error) {
	query = strings.TrimSpace(query)
	if query == "" {
		return boolLit(true), nil
	}
	p := &parser{lx: &lexer{src: []byte(query)}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.cur.kind != tokEOF {
		return nil, p.lx.error(p.cur.pos, "unexpected trailing %q", p.cur.text)
	}
	return e, nil
}

// MustCompile is Compile that panics on error, for static queries.
func MustCompile(query string) Expr {
	e, err := Compile(query)
	if err != nil {
		panic(err)
	}
	return e
}

func (p *parser) advance() error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.cur = t
	return nil
}

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.cur.kind == tokOrOr {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = binExpr{or: true, left: left, right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.cur.kind == tokAndAnd {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = binExpr{left: left, right: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.cur.kind == tokBang {
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return notExpr{inner: inner}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	switch p.cur.kind {
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.cur.kind != tokRParen {
			return nil, p.lx.error(p.cur.pos, "expected ')'")
		}
		return e, p.advance()
	case tokBool:
		lit := boolLit(p.cur.text == "true")
		return lit, p.advance()
	case tokIdent:
		path := p.cur.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.cur.kind != tokOp {
			return nil, p.lx.error(p.cur.pos, "expected comparison operator after %q", path)
		}
		op := p.cur.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		c := cmpExpr{path: path, op: op, kind: p.cur.kind}
		switch p.cur.kind {
		case tokNumber:
			n, err := strconv.ParseFloat(p.cur.text, 64)
			if err != nil {
				return nil, p.lx.error(p.cur.pos, "bad number %q", p.cur.text)
			}
			c.num = n
		case tokString:
			c.str = p.cur.text
		case tokBool:
			c.b = p.cur.text == "true"
			if op != "==" && op != "!=" {
				return nil, p.lx.error(p.cur.pos, "operator %q not defined on booleans", op)
			}
		default:
			return nil, p.lx.error(p.cur.pos, "expected literal after %q", op)
		}
		return c, p.advance()
	default:
		return nil, p.lx.error(p.cur.pos, "unexpected %q", p.cur.text)
	}
}
