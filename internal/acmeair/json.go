package acmeair

import (
	"fmt"
	"slices"
	"strconv"
	"unicode/utf8"

	"asyncg/internal/mongosim"
)

// appendJSON appends v to b exactly as json.Marshal encodes it, for the
// value types AcmeAir responses carry: string, int, int64, bool, nil,
// map[string]string, map[string]any and mongosim.Document (keys sorted,
// values nested) and []mongosim.Document. Any other type is an error. It
// takes no reflection: keys are sorted on the stack, so a response costs
// its bytes plus a key slice only for an object of more than 16 keys.
func appendJSON(b []byte, v any) ([]byte, error) {
	switch v := v.(type) {
	case nil:
		return append(b, "null"...), nil
	case string:
		return appendJSONString(b, v), nil
	case int:
		return strconv.AppendInt(b, int64(v), 10), nil
	case int64:
		return strconv.AppendInt(b, v, 10), nil
	case bool:
		return strconv.AppendBool(b, v), nil
	case map[string]string:
		if v == nil {
			return append(b, "null"...), nil
		}
		var buf [16]string
		b = append(b, '{')
		for i, k := range sortedKeys(buf[:0], v) {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(appendJSONString(b, k), ':')
			b = appendJSONString(b, v[k])
		}
		return append(b, '}'), nil
	case mongosim.Document:
		return appendJSONObject(b, v)
	case map[string]any:
		return appendJSONObject(b, v)
	case []mongosim.Document:
		if v == nil {
			return append(b, "null"...), nil
		}
		b = append(b, '[')
		for i, doc := range v {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendJSONObject(b, doc); err != nil {
				return b, err
			}
		}
		return append(b, ']'), nil
	default:
		return b, fmt.Errorf("acmeair: cannot encode %T as JSON", v)
	}
}

// appendJSONObject appends m with its keys in sorted order.
func appendJSONObject(b []byte, m map[string]any) ([]byte, error) {
	if m == nil {
		return append(b, "null"...), nil
	}
	var buf [16]string
	b = append(b, '{')
	for i, k := range sortedKeys(buf[:0], m) {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(appendJSONString(b, k), ':')
		var err error
		if b, err = appendJSON(b, m[k]); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// sortedKeys appends m's keys to keys in byte order, the order
// json.Marshal writes map keys in.
func sortedKeys[V any](keys []string, m map[string]V) []string {
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

const jsonHex = "0123456789abcdef"

// appendJSONString appends s as a JSON string with json.Marshal's
// escaping: '"' and '\\' backslashed; \b, \f, \n, \r and \t by name;
// other control bytes and the HTML-sensitive '<', '>' and '&' as \u00XX;
// U+2028 and U+2029 as \u2028 and \u2029; each byte of invalid UTF-8 as
// \ufffd. Runs of bytes that need none of this are copied whole.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', jsonHex[c>>4], jsonHex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', jsonHex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
