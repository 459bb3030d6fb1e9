package server

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// decodeObserve is decode for an observe body, with a fast path for the
// compact shape json.Marshal(ObserveRequest) emits: {"hyperperiods":[[n,…],…]}
// with an optional ,"at":<integer>, no whitespace, no other or repeated key
// and nothing after the closing brace. parseObserve converts that shape
// directly; encoding/json spends most of an observe's decode time on the
// reflection and scanning around the same strconv calls. Any other body, and
// any body whose read failed, is declined: decodeJSON then receives the same
// bytes followed by the same read error, so its result and every 4xx body
// are what decode alone gives.
func decodeObserve(r *http.Request, req *ObserveRequest) *apiError {
	buf := bytes.NewBuffer(make([]byte, 0, min(max(r.ContentLength, 0), presizeLimit)+bytes.MinRead))
	_, err := buf.ReadFrom(http.MaxBytesReader(nil, r.Body, MaxRequestBody))
	data := buf.Bytes()
	if err == nil {
		if fast, ok := parseObserve(data); ok {
			*req = fast
			return nil
		}
	}
	var body io.Reader = bytes.NewReader(data)
	if err != nil {
		body = io.MultiReader(body, errReader{err})
	}
	return decodeJSON(body, req)
}

// presizeLimit caps the buffer decodeObserve sizes from Content-Length
// before any byte arrives. Observe bodies are tens of KB; a larger claim
// grows the buffer only as its bytes are read, so a client cannot make the
// server commit memory it has not sent.
const presizeLimit = 64 << 10

// errReader replays a read error after the bytes read before it.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// observeHead opens every body parseObserve accepts.
const observeHead = `{"hyperperiods":[`

// parseObserve parses data if it has exactly decodeObserve's fast-path shape
// and declines (ok false) otherwise. An accepted body yields what
// encoding/json yields, bit for bit: each number is checked against the JSON
// grammar (RFC 8259 §6) first, because strconv also accepts forms JSON
// forbids (+1, .5, 01, Inf, 0x1p3, 1_0), and then converted by the same
// strconv call encoding/json makes; a conversion error (1e400) declines, so
// encoding/json reports it. Empty lists decode to empty, non-nil slices, as
// with encoding/json; null anywhere declines.
func parseObserve(data []byte) (req ObserveRequest, ok bool) {
	s := string(data) // the one copy: every number below is a substring of s
	if !strings.HasPrefix(s, observeHead) {
		return req, false
	}
	// Upper bounds, so neither slice grows: every number after the first
	// follows a comma, and every row opens a bracket. A number or a row takes
	// at least two bytes, which caps what a body of commas or brackets can
	// make this allocate before it is declined.
	flat := make([]float64, 0, min(strings.Count(s, ","), len(s)/2)+1)
	rows := make([][]float64, 0, min(strings.Count(s, "["), len(s)/2))
	i := len(observeHead)
	if byteAt(s, i) == ']' {
		i++
	} else {
		for {
			if byteAt(s, i) != '[' {
				return req, false
			}
			i++
			start := len(flat)
			if byteAt(s, i) == ']' {
				i++
			} else {
				for {
					j := numberEnd(s, i)
					v, err := strconv.ParseFloat(s[i:j], 64)
					if err != nil {
						return req, false
					}
					flat = append(flat, v)
					c := byteAt(s, j)
					i = j + 1
					if c == ']' {
						break
					}
					if c != ',' {
						return req, false
					}
				}
			}
			rows = append(rows, flat[start:len(flat):len(flat)])
			c := byteAt(s, i)
			i++
			if c == ']' {
				break
			}
			if c != ',' {
				return req, false
			}
		}
	}
	const atKey = `,"at":`
	switch tail := s[i:]; {
	case tail == "}":
		return ObserveRequest{Hyperperiods: rows}, true
	case strings.HasPrefix(tail, atKey) && strings.HasSuffix(tail, "}"):
		// ParseInt refuses the fraction and exponent forms encoding/json
		// refuses for an int64; numberEnd refuses what JSON forbids.
		lit := tail[len(atKey) : len(tail)-1]
		n, err := strconv.ParseInt(lit, 10, 64)
		if err != nil || numberEnd(lit, 0) != len(lit) {
			return req, false
		}
		return ObserveRequest{Hyperperiods: rows, At: &n}, true
	}
	return req, false
}

// numberEnd returns the end of the longest JSON number starting at s[i], or
// i if none starts there: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func numberEnd(s string, i int) int {
	j := i
	if byteAt(s, j) == '-' {
		j++
	}
	switch c := byteAt(s, j); {
	case c == '0':
		j++
	case '1' <= c && c <= '9':
		j = digitsEnd(s, j+1)
	default:
		return i
	}
	if byteAt(s, j) == '.' && isDigit(byteAt(s, j+1)) {
		j = digitsEnd(s, j+2)
	}
	if c := byteAt(s, j); c == 'e' || c == 'E' {
		k := j + 1
		if c := byteAt(s, k); c == '+' || c == '-' {
			k++
		}
		if isDigit(byteAt(s, k)) {
			j = digitsEnd(s, k+1)
		}
	}
	return j
}

func digitsEnd(s string, i int) int {
	for i < len(s) && isDigit(s[i]) {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// byteAt is s[i], or 0 past the end of s.
func byteAt(s string, i int) byte {
	if i < len(s) {
		return s[i]
	}
	return 0
}
