package explore

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"strings"
)

// tokenPrefix versions the token encoding; bump it if the pick encoding
// or the set of choice points changes incompatibly.
const tokenPrefix = "s1."

// Schedule is the record of one run's scheduling decisions: the i-th
// pick answers the i-th call to Scheduler.Choose. A program replayed
// under the same picks executes byte-for-byte identically, because every
// source of nondeterminism is routed through Choose.
type Schedule struct {
	// Picks holds one choice per Scheduler.Choose call, in call order.
	Picks []int
}

// Token renders the schedule as a compact printable string: the pick
// sequence, trailing zeros trimmed (replay treats positions past the end
// as zero), uvarint-packed and base64url-encoded under an "s1." version
// prefix.
func (s Schedule) Token() string {
	picks := s.Picks
	for len(picks) > 0 && picks[len(picks)-1] == 0 {
		picks = picks[:len(picks)-1]
	}
	buf := make([]byte, 0, len(picks)+8)
	var tmp [binary.MaxVarintLen64]byte
	for _, p := range picks {
		if p < 0 {
			p = 0
		}
		n := binary.PutUvarint(tmp[:], uint64(p))
		buf = append(buf, tmp[:n]...)
	}
	return tokenPrefix + base64.RawURLEncoding.EncodeToString(buf)
}

// ParseToken decodes a schedule token produced by Token.
func ParseToken(tok string) (Schedule, error) {
	if !strings.HasPrefix(tok, tokenPrefix) {
		return Schedule{}, fmt.Errorf("explore: schedule token %q: missing %q prefix", tok, tokenPrefix)
	}
	raw, err := base64.RawURLEncoding.DecodeString(strings.TrimPrefix(tok, tokenPrefix))
	if err != nil {
		return Schedule{}, fmt.Errorf("explore: schedule token %q: %v", tok, err)
	}
	var picks []int
	for len(raw) > 0 {
		v, n := binary.Uvarint(raw)
		if n <= 0 {
			return Schedule{}, fmt.Errorf("explore: schedule token %q: truncated pick sequence", tok)
		}
		// A pick is at most 2^31 and must fit in int, which on 32-bit
		// targets leaves out 2^31 itself.
		if v > 1<<31 || int(v) < 0 {
			return Schedule{}, fmt.Errorf("explore: schedule token %q: pick %d out of range", tok, v)
		}
		picks = append(picks, int(v))
		raw = raw[n:]
	}
	return Schedule{Picks: picks}, nil
}
