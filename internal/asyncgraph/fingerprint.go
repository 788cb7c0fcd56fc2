package asyncgraph

import (
	"encoding/binary"
	"encoding/hex"
)

// fingerprintRounds is the number of Weisfeiler-Lehman refinement
// rounds. Three rounds propagate structure across CR→CE→(created nodes)
// chains far enough to separate every graph shape the detectors care
// about, while staying O(rounds · (nodes + edges)).
const fingerprintRounds = 3

// Seeds of the hash chains: one per kind of input, so a node label, an
// edge tag, a string and a refined label never start from the same
// state.
const (
	seedNode   uint64 = 0x243f6a8885a308d3
	seedEdge   uint64 = 0x13198a2e03707344
	seedString uint64 = 0xa4093822299f31d0
	seedRound  uint64 = 0x082efa98ec4e6c89
	seedGraph  uint64 = 0x452821e638d01377
)

// fpScratch holds the working storage one Fingerprint call needs. It
// lives on the Graph (created lazily on first use) so a graph that is
// fingerprinted after every run — the explore engine's steady state —
// reuses one allocation set instead of rebuilding it each call.
type fpScratch struct {
	labels, next, tags, out, in []uint64
}

// growU64 resizes buf to n elements, reallocating only when capacity is
// short. Contents are unspecified; callers overwrite every element.
func growU64(buf *[]uint64, n int) []uint64 {
	if cap(*buf) < n {
		*buf = make([]uint64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// Fingerprint returns a canonical hash of the graph's structure: the
// multiset of CR/CE/CT/OB nodes (kind, API, event, callback name, source
// location, removal state, containing phase) connected by direct,
// binding and relation edges. It is invariant under node numbering, edge
// order and tick numbering, so two runs of a program produce the same
// fingerprint exactly when they built the same Async Graph shape —
// the equivalence the explore package uses to diff schedules.
//
// Volatile decoration is deliberately excluded: display labels and
// object ids (both depend on allocation order), registration/trigger
// sequence numbers, execution counters (already represented by CE nodes
// and binding edges), warnings (classified separately), and promise
// stacks.
//
// The hash is a Weisfeiler-Lehman refinement over 64-bit words: every
// input is mixed in one word at a time, and each round combines a
// node's outbound and inbound neighbour multisets as order-independent
// sums of mixed (edge tag, neighbour label) pairs, so no round sorts or
// builds adjacency lists. The "ag2-" prefix versions the format.
func (g *Graph) Fingerprint() string {
	if g.fp == nil {
		g.fp = &fpScratch{}
	}
	s := g.fp
	n := len(g.Nodes)
	labels := growU64(&s.labels, n)
	for i, node := range g.Nodes {
		labels[i] = nodeBaseLabel(g, node)
	}
	tags := growU64(&s.tags, len(g.Edges))
	for i, e := range g.Edges {
		tags[i] = fold(fold(seedEdge, uint64(e.Kind)), hashString(e.Label))
	}

	next, out, in := growU64(&s.next, n), growU64(&s.out, n), growU64(&s.in, n)
	for round := 0; round < fingerprintRounds; round++ {
		clear(out)
		clear(in)
		for k, e := range g.Edges {
			// Edges with a dangling endpoint are skipped.
			if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
				continue
			}
			out[e.From] += fold(tags[k], labels[e.To])
			in[e.To] += fold(tags[k], labels[e.From])
		}
		for i := range labels {
			next[i] = fold(fold(fold(seedRound, labels[i]), out[i]), in[i])
		}
		labels, next = next, labels
	}
	s.labels, s.next = labels, next

	var sum uint64
	for _, v := range labels {
		sum += v
	}
	h := fold(fold(fold(seedGraph, uint64(n)), uint64(len(g.Edges))), sum)
	var word [8]byte
	binary.BigEndian.PutUint64(word[:], h)
	var fp [20]byte
	copy(fp[:], "ag2-")
	hex.Encode(fp[4:], word[:])
	return string(fp[:])
}

// nodeBaseLabel hashes the schedule-stable attributes of one node. The
// containing tick's phase participates (a callback running in the timer
// phase is different behaviour from the same callback in the I/O phase)
// but the tick index does not. An internal location hashes as the empty
// file at line 0, whatever its line.
func nodeBaseLabel(g *Graph, n *Node) uint64 {
	phase := ""
	if tk := g.TickOf(n.ID); tk != nil {
		phase = tk.Phase
	}
	flags := uint64(n.Kind) << 1
	if n.Removed {
		flags |= 1
	}
	line := uint64(n.Loc.Line)
	if n.Loc.IsInternal() {
		line = 0
	}
	h := fold(seedNode, flags)
	h = fold(h, hashString(n.API))
	h = fold(h, hashString(n.Event))
	h = fold(h, hashString(n.Func))
	h = fold(h, hashString(n.Loc.File))
	h = fold(h, line)
	return fold(h, hashString(phase))
}

// hashString hashes s a word at a time: its length, then each 8-byte
// little-endian word. The final word overlaps its predecessor when the
// length is not a multiple of 8, and a string shorter than a word packs
// into one; the length mixed in first keeps either encoding unambiguous.
func hashString(s string) uint64 {
	h := fold(seedString, uint64(len(s)))
	rest := s
	for len(rest) > 8 {
		h = fold(h, le64(rest))
		rest = rest[8:]
	}
	var w uint64
	switch k := len(rest); {
	case len(s) >= 8:
		w = le64(s[len(s)-8:])
	case k >= 4:
		w = uint64(le32(rest)) | uint64(le32(rest[k-4:]))<<32
	case k > 0:
		w = uint64(rest[0])<<16 | uint64(rest[k/2])<<8 | uint64(rest[k-1])
	}
	return fold(h, w)
}

// le64 reads the first 8 bytes of s as a little-endian word.
func le64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// le32 reads the first 4 bytes of s as a little-endian word.
func le32(s string) uint32 {
	_ = s[3]
	return uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24
}

// fold mixes the word w into the hash state h.
func fold(h, w uint64) uint64 { return mix(h ^ w) }

// mix is a bijective 64-bit finalizer (MurmurHash3's fmix64): every
// input bit affects every output bit, so states that differ in one word
// leave fold far apart.
func mix(v uint64) uint64 {
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 33
	return v
}
