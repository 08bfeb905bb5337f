package server

import (
	"bytes"
	"math"
	"strconv"

	"repro/internal/graph"
)

// The bulk write route's fast path. A 4096-edge body is ~100 KB of the
// same twelve-token object over and over; reflection-driven
// encoding/json spends more on it than the fold and the publish the
// request exists for. scanMutation reads exactly one spelling of that
// body and declines everything else, so encoding/json stays the one
// definition of what /v1/edges accepts and of every error text
// (FuzzScanMutation holds the two to the same answer).

// minEdgeBytes is the shortest canonical edge, `{"u":0,"v":0}`, with
// the comma that separates it from the next: a body of len bytes holds
// at most len/minEdgeBytes edges.
const minEdgeBytes = len(`{"u":0,"v":0},`)

// scanMutation decodes a canonical /v1/edges body,
//
//	{"edges":[{"u":N,"v":N,"w":F},...]}
//
// with JSON whitespace allowed between tokens, the keys u, v and w
// spelled exactly so, in any order, each at most once and w optional
// (an omitted weight is 1), N a plain decimal that fits uint32 and F a
// JSON number that parses as a positive finite float32. It reports
// ok=false for any other input — including input encoding/json would
// accept (other key case, duplicate or missing keys, null, a labels
// member) and input it would reject — and the caller then runs the
// same bytes through encoding/json.
func scanMutation(b []byte) (edges []graph.Edge, ok bool) {
	s := scanner{b: b}
	if !s.token('{') || !s.literal(`"edges"`) || !s.token(':') || !s.token('[') {
		return nil, false
	}
	// One '{' per edge after the outer one, in a canonical body; the
	// length cap keeps a hostile body of nothing but braces from picking
	// the allocation (len(b) is already bounded by maxBodyBytes).
	n := bytes.Count(b, []byte{'{'}) - 1
	if most := len(b) / minEdgeBytes; n > most {
		n = most
	}
	edges = make([]graph.Edge, 0, n)
	if !s.token(']') {
		for {
			e, ok := s.edge()
			if !ok || len(edges) == cap(edges) {
				return nil, false
			}
			edges = append(edges, e)
			if s.token(',') {
				continue
			}
			if s.token(']') {
				break
			}
			return nil, false
		}
	}
	if !s.token('}') {
		return nil, false
	}
	s.space()
	return edges, s.i == len(b)
}

// scanner is a cursor over a request body.
type scanner struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (s *scanner) space() {
	// Every token byte sorts above the four whitespace bytes, so the
	// usual case — no whitespace — is one comparison.
	for s.i < len(s.b) {
		if c := s.b[s.i]; c > ' ' || (c != ' ' && c != '\n' && c != '\t' && c != '\r') {
			return
		}
		s.i++
	}
}

// token consumes c, after optional whitespace, if it is next.
func (s *scanner) token(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// literal consumes lit, after optional whitespace, if it is next.
func (s *scanner) literal(lit string) bool {
	s.space()
	if len(s.b)-s.i >= len(lit) && string(s.b[s.i:s.i+len(lit)]) == lit {
		s.i += len(lit)
		return true
	}
	return false
}

// edge consumes one {"u":N,"v":N,"w":F} object.
func (s *scanner) edge() (graph.Edge, bool) {
	e := graph.Edge{W: 1}
	if !s.token('{') {
		return e, false
	}
	const hasU, hasV, hasW = 1, 2, 4
	seen := 0
	for {
		s.space()
		// A key is one of three one-letter strings: quote, letter, quote.
		if len(s.b)-s.i < 3 || s.b[s.i] != '"' || s.b[s.i+2] != '"' {
			return e, false
		}
		key := s.b[s.i+1]
		s.i += 3
		if !s.token(':') {
			return e, false
		}
		s.space()
		var bit int
		var ok bool
		switch key {
		case 'u':
			bit = hasU
			e.U, ok = s.vertex()
		case 'v':
			bit = hasV
			e.V, ok = s.vertex()
		case 'w':
			bit = hasW
			e.W, ok = s.weight()
		}
		if !ok || seen&bit != 0 {
			return e, false
		}
		seen |= bit
		if s.token(',') {
			continue
		}
		return e, s.token('}') && seen&(hasU|hasV) == hasU|hasV
	}
}

// vertex consumes a plain decimal vertex id: no sign, fraction,
// exponent or leading zero, at most MaxUint32.
func (s *scanner) vertex() (uint32, bool) {
	start := s.i
	var v uint64
	for s.i < len(s.b) && s.b[s.i]-'0' <= 9 && v <= math.MaxUint32 {
		v = v*10 + uint64(s.b[s.i]-'0')
		s.i++
	}
	digits := s.i - start
	if digits == 0 || v > math.MaxUint32 || (digits > 1 && s.b[start] == '0') {
		return 0, false
	}
	return uint32(v), true
}

// digits consumes a run of decimal digits and reports whether there
// was one.
func (s *scanner) digits() bool {
	from := s.i
	for s.i < len(s.b) && s.b[s.i]-'0' <= 9 {
		s.i++
	}
	return s.i > from
}

// weight consumes a JSON number and parses it the way encoding/json
// fills a float32. A weight toEdges would refuse (zero, negative,
// overflowing) declines the body, so the refusal keeps its one wording.
func (s *scanner) weight() (float32, bool) {
	start := s.i
	if !s.digits() || (s.i-start > 1 && s.b[start] == '0') {
		return 0, false
	}
	// A short whole weight, the usual kind, is its integer exactly.
	if s.i-start <= 7 && s.i < len(s.b) && s.b[s.i] != '.' && s.b[s.i]|0x20 != 'e' {
		n := uint32(0)
		for _, c := range s.b[start:s.i] {
			n = n*10 + uint32(c-'0')
		}
		return float32(n), n > 0
	}
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if !s.digits() {
			return 0, false
		}
	}
	if s.i < len(s.b) && s.b[s.i]|0x20 == 'e' {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if !s.digits() {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(s.b[start:s.i]), 32)
	if err != nil || f <= 0 {
		return 0, false
	}
	return float32(f), true
}
