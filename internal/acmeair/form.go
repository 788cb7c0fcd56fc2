// Package acmeair reimplements the AcmeAir flight-booking benchmark —
// the server the paper's evaluation (§VII-B) measures — on top of the
// simulated HTTP, network and MongoDB layers. The service exposes the
// benchmark's REST endpoints (login, query flights, book, cancel, view
// bookings, customer profile). As in the paper's modified AcmeAir, the
// flight query, the booking and the customer lookup reach the database
// through the promise interface; the other endpoints use callbacks.
package acmeair

import "strings"

// parseForm decodes an application/x-www-form-urlencoded body
// ("login=uid0&password=pw") into a map. It implements the subset the
// benchmark driver produces: %XX escapes and '+' for space.
func parseForm(body string) map[string]string {
	out := make(map[string]string)
	for body != "" {
		var pair string
		pair, body, _ = strings.Cut(body, "&")
		if pair == "" {
			continue
		}
		key, val, _ := strings.Cut(pair, "=")
		out[unescape(key)] = unescape(val)
	}
	return out
}

// encodeForm is the inverse of parseForm, used by the workload driver.
func encodeForm(fields map[string]string) string {
	// Deterministic order keeps wire bytes reproducible.
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	var sb strings.Builder
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte('&')
		}
		sb.WriteString(escape(k))
		sb.WriteByte('=')
		sb.WriteString(escape(fields[k]))
	}
	return sb.String()
}

// unescape decodes %XX escapes and '+'; a string with neither is
// returned as it is.
func unescape(s string) string {
	if !strings.ContainsAny(s, "%+") {
		return s
	}
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '+':
			sb.WriteByte(' ')
		case s[i] == '%' && i+2 < len(s):
			hi, ok1 := unhex(s[i+1])
			lo, ok2 := unhex(s[i+2])
			if ok1 && ok2 {
				sb.WriteByte(hi<<4 | lo)
				i += 2
			} else {
				sb.WriteByte(s[i])
			}
		default:
			sb.WriteByte(s[i])
		}
	}
	return sb.String()
}

func escape(s string) string {
	const hexDigits = "0123456789ABCDEF"
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9',
			c == '-' || c == '_' || c == '.' || c == '~':
			sb.WriteByte(c)
		case c == ' ':
			sb.WriteByte('+')
		default:
			sb.WriteByte('%')
			sb.WriteByte(hexDigits[c>>4])
			sb.WriteByte(hexDigits[c&0xf])
		}
	}
	return sb.String()
}

func unhex(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	default:
		return 0, false
	}
}
