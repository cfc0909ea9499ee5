package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
)

// Wire decode: a hand-written parser for the one JSON schema POST /v1/decode
// accepts. It makes a single pass over the body bytes and lays each frame's
// channel rows out as sub-slices of one backing array. Each number is
// scanned once (wirenum.go): its grammar is checked and its decimal
// mantissa and exponent collected in the same pass, and an exact fast path
// (Clinger's case, then Eisel–Lemire) converts it, falling back to
// strconv.ParseFloat for what it cannot decide, so every float is
// bit-identical to what encoding/json produces. A pair written without
// whitespace, [num,num], is decoded in one step when both numbers take
// the fast path. Accepted inputs and decoded values match exactly what
// encoding/json's reflection decoder (json.Decoder with
// DisallowUnknownFields) makes of the same struct, quirks included:
//
//   - keys match case-insensitively (bytes.EqualFold), after unescaping;
//   - values decode into what is already there, so a repeated key wins but
//     reuses the slices the earlier value left behind, as reflection does;
//   - null leaves floats, pairs, frames and strings unchanged and sets
//     slices to nil;
//   - a short [re, im] pair is zero-filled, extra pair elements are skipped
//     but must still be valid JSON;
//   - numbers outside the float64 range are rejected;
//   - a top-level null is a no-op.
//
// FuzzDecodeRequest holds the parser to that contract against encoding/json.

// maxNestingDepth is encoding/json's scanner limit on open arrays and
// objects.
const maxNestingDepth = 10000

// wireParser is the cursor over one body. The scratch slices are reused
// across parses through parserPool.
type wireParser struct {
	data  []byte
	pos   int
	depth int
	// pairs stages freshly decoded [re, im] pairs before they are copied
	// into an exactly sized backing array; rowEnds records where each h
	// row ends in it (-1 for a null row).
	pairs   [][2]float64
	rowEnds []int
}

// Pooled scratch and body buffers are dropped rather than kept when one
// request grew them past these sizes, so a single huge body does not pin
// its memory for the life of the process.
const (
	maxPooledPairs = 1 << 16
	maxPooledBody  = 1 << 20
)

var (
	parserPool = sync.Pool{New: func() any { return new(wireParser) }}
	bodyPool   = sync.Pool{New: func() any { return new(bytes.Buffer) }}
)

// parseDecodeRequest decodes the JSON value at the front of data into r and
// returns the offset just past it.
func parseDecodeRequest(data []byte, r *DecodeRequest) (int, error) {
	p := parserPool.Get().(*wireParser)
	p.data, p.pos, p.depth, p.pairs = data, 0, 0, p.pairs[:0]
	var err error
	switch p.peek() {
	case '{':
		err = p.object(r)
	case 'n':
		err = p.literal("null")
	default:
		err = p.mismatch("a decode request")
	}
	n := p.pos
	p.data = nil
	if cap(p.pairs) > maxPooledPairs {
		p.pairs = nil
	}
	parserPool.Put(p)
	return n, err
}

// UnmarshalJSON decodes a POST /v1/decode body with the same strictness the
// HTTP front ends apply: unknown fields are rejected. Every json.Unmarshal
// into a DecodeRequest goes through it.
func (r *DecodeRequest) UnmarshalJSON(data []byte) error {
	n, err := parseDecodeRequest(data, r)
	if err != nil {
		return err
	}
	if len(bytes.TrimLeft(data[n:], " \t\r\n")) > 0 {
		return errors.New("invalid data after top-level value")
	}
	return nil
}

// ReadDecodeRequest reads and parses a POST /v1/decode body and checks its
// form: a body is either one frame or an envelope of frames, never both,
// and an envelope's frames do not nest further frames. Frames without a
// scenario label take the envelope's. Bytes after the top-level value are
// ignored, as json.Decoder ignores them. Every error is the client's: the
// front ends answer it with 400 bad_request.
func ReadDecodeRequest(body io.Reader) (DecodeRequest, error) {
	var req DecodeRequest
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := buf.ReadFrom(body)
	if err == nil {
		_, err = parseDecodeRequest(buf.Bytes(), &req)
	}
	if buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
	if err != nil {
		return DecodeRequest{}, fmt.Errorf("malformed request body: %w", err)
	}
	if len(req.Frames) == 0 {
		return req, nil
	}
	if len(req.H) > 0 || len(req.Y) > 0 || req.NoiseVar != 0 {
		return DecodeRequest{}, errors.New("request mixes single-frame fields (h/y/noise_var) with the batch form (frames)")
	}
	for i := range req.Frames {
		f := &req.Frames[i]
		if len(f.Frames) > 0 {
			return DecodeRequest{}, fmt.Errorf("frames[%d] nests a frames array", i)
		}
		if f.Scenario == "" {
			f.Scenario = req.Scenario
		}
	}
	return req, nil
}

// Field identifiers in the order of fieldNames.
const (
	fieldH = iota
	fieldY
	fieldNoiseVar
	fieldFrames
	fieldScenario
	fieldUnknown
)

var fieldNames = [...][]byte{[]byte("h"), []byte("y"), []byte("noise_var"), []byte("frames"), []byte("scenario")}

// field resolves a key the way encoding/json does: an exact match first,
// then a case-insensitive one.
func field(key []byte) int {
	for i, name := range fieldNames {
		if bytes.Equal(key, name) {
			return i
		}
	}
	for i, name := range fieldNames {
		if bytes.EqualFold(key, name) {
			return i
		}
	}
	return fieldUnknown
}

// object decodes the object at p.pos into r, field by field.
func (p *wireParser) object(r *DecodeRequest) error {
	if err := p.open(); err != nil {
		return err
	}
	for first := true; ; first = false {
		key, ok, err := p.member(first)
		if err != nil || !ok {
			return err
		}
		switch field(key) {
		case fieldH:
			err = p.matrix(&r.H)
		case fieldY:
			err = p.pairsField(&r.Y)
		case fieldNoiseVar:
			err = p.float(&r.NoiseVar, "noise_var")
		case fieldFrames:
			err = p.frames(&r.Frames)
		case fieldScenario:
			err = p.scenario(&r.Scenario)
		default:
			err = fmt.Errorf("unknown field %q", key)
		}
		if err != nil {
			return err
		}
	}
}

// frames decodes the frames array into *dst, reusing the elements already
// there as reflection does.
func (p *wireParser) frames(dst *[]DecodeRequest) error {
	switch p.peek() {
	case 'n':
		*dst = nil
		return p.literal("null")
	case '[':
	default:
		return p.mismatch("frames")
	}
	if err := p.open(); err != nil {
		return err
	}
	fr := *dst
	i := 0
	for ; ; i++ {
		more, err := p.more(i == 0)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		fr = grow(fr, i)
		switch p.peek() {
		case 'n':
			err = p.literal("null")
		case '{':
			err = p.object(&fr[i])
		default:
			err = p.mismatch("frames[]")
		}
		if err != nil {
			return err
		}
	}
	*dst = truncate(fr, i)
	return nil
}

// matrix decodes h into *dst. A fresh matrix is staged in p.pairs and
// copied into one exactly sized backing array that the rows sub-slice.
func (p *wireParser) matrix(dst *[][][2]float64) error {
	switch p.peek() {
	case 'n':
		*dst = nil
		return p.literal("null")
	case '[':
	default:
		return p.mismatch("h")
	}
	if cap(*dst) > 0 {
		return p.matrixInto(dst)
	}
	if err := p.open(); err != nil {
		return err
	}
	mark := len(p.pairs)
	p.rowEnds = p.rowEnds[:0]
	for i := 0; ; i++ {
		more, err := p.more(i == 0)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		switch p.peek() {
		case 'n':
			err = p.literal("null")
			p.rowEnds = append(p.rowEnds, -1)
		case '[':
			err = p.stagePairs()
			p.rowEnds = append(p.rowEnds, len(p.pairs))
		default:
			err = p.mismatch("h[]")
		}
		if err != nil {
			return err
		}
	}
	backing := make([][2]float64, len(p.pairs)-mark)
	copy(backing, p.pairs[mark:])
	p.pairs = p.pairs[:mark]
	rows := make([][][2]float64, len(p.rowEnds))
	off := 0
	for i, end := range p.rowEnds {
		if end >= 0 {
			end -= mark
			rows[i] = backing[off:end:end]
			off = end
		}
	}
	*dst = rows
	return nil
}

// matrixInto decodes h into a matrix a repeated key left behind, reusing
// its rows as reflection does.
func (p *wireParser) matrixInto(dst *[][][2]float64) error {
	if err := p.open(); err != nil {
		return err
	}
	rows := *dst
	i := 0
	for ; ; i++ {
		more, err := p.more(i == 0)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		rows = grow(rows, i)
		switch p.peek() {
		case 'n':
			rows[i] = nil
			err = p.literal("null")
		case '[':
			rows[i], err = p.pairsInto(rows[i])
		default:
			err = p.mismatch("h[]")
		}
		if err != nil {
			return err
		}
	}
	*dst = truncate(rows, i)
	return nil
}

// pairsField decodes y, an array of [re, im] pairs or null, into *dst.
func (p *wireParser) pairsField(dst *[][2]float64) error {
	switch p.peek() {
	case 'n':
		*dst = nil
		return p.literal("null")
	case '[':
	default:
		return p.mismatch("y")
	}
	v, err := p.pairsInto(*dst)
	*dst = v
	return err
}

// pairsInto decodes the pair array at p.pos into dst with reflection's
// slice semantics and returns the result. An empty dst is decoded fresh
// through the staging buffer into an exactly sized slice.
func (p *wireParser) pairsInto(dst [][2]float64) ([][2]float64, error) {
	if cap(dst) == 0 {
		mark := len(p.pairs)
		if err := p.stagePairs(); err != nil {
			return dst, err
		}
		out := make([][2]float64, len(p.pairs)-mark)
		copy(out, p.pairs[mark:])
		p.pairs = p.pairs[:mark]
		return out, nil
	}
	if err := p.open(); err != nil {
		return dst, err
	}
	i := 0
	for ; ; i++ {
		more, err := p.more(i == 0)
		if err != nil {
			return dst, err
		}
		if !more {
			break
		}
		dst = grow(dst, i)
		if err := p.pair(&dst[i]); err != nil {
			return dst, err
		}
	}
	return truncate(dst, i), nil
}

// stagePairs appends the pairs of the array at p.pos to p.pairs, each
// decoded into a zero pair.
func (p *wireParser) stagePairs() error {
	if err := p.open(); err != nil {
		return err
	}
	for i := 0; ; i++ {
		more, err := p.more(i == 0)
		if err != nil {
			return err
		}
		if !more {
			return nil
		}
		p.pairs = append(p.pairs, [2]float64{})
		if err := p.pair(&p.pairs[len(p.pairs)-1]); err != nil {
			return err
		}
	}
}

// pair decodes one [re, im] pair into *dst: null leaves it unchanged,
// missing elements are zeroed, extra elements are validated and skipped.
func (p *wireParser) pair(dst *[2]float64) error {
	switch p.peek() {
	case 'n':
		return p.literal("null")
	case '[':
	default:
		return p.mismatch("[re, im] pair")
	}
	if p.tightPair(dst) {
		return nil
	}
	if err := p.open(); err != nil {
		return err
	}
	i := 0
	for ; ; i++ {
		more, err := p.more(i == 0)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		if i < len(dst) {
			err = p.float(&dst[i], "[re, im] pair element")
		} else {
			err = p.skip()
		}
		if err != nil {
			return err
		}
	}
	for ; i < len(dst); i++ {
		dst[i] = 0
	}
	return nil
}

// tightPair decodes the pair at p.pos when it is written without
// whitespace, [num,num], and both numbers take the exact fast path, and
// reports whether it did. Otherwise it consumes nothing and the general
// path decodes (or rejects) the pair. The nesting limit is enforced as
// open() enforces it: a pair past the limit is left to the general path.
func (p *wireParser) tightPair(dst *[2]float64) bool {
	if p.depth >= maxNestingDepth {
		return false
	}
	d := p.data
	i, re, ok := scanNumber(d, p.pos+1)
	if !ok || i >= len(d) || d[i] != ',' {
		return false
	}
	i, im, ok := scanNumber(d, i+1)
	if !ok || i >= len(d) || d[i] != ']' {
		return false
	}
	a, ok := re.float64()
	if !ok {
		return false
	}
	b, ok := im.float64()
	if !ok {
		return false
	}
	dst[0], dst[1] = a, b
	p.pos = i + 1
	return true
}

// float decodes a number into *dst; null leaves *dst unchanged. Numbers
// the exact fast paths cannot decide go to strconv.ParseFloat.
func (p *wireParser) float(dst *float64, what string) error {
	switch c := p.peek(); {
	case c == '-' || isDigit(c):
		start := p.pos
		num, err := p.readNumber()
		if err != nil {
			return err
		}
		v, ok := num.float64()
		if !ok {
			if v, err = strconv.ParseFloat(string(p.data[start:p.pos]), 64); err != nil {
				return fmt.Errorf("number %s out of range for %s", p.data[start:p.pos], what)
			}
		}
		*dst = v
		return nil
	case c == 'n':
		return p.literal("null")
	default:
		return p.mismatch(what)
	}
}

// scenario decodes a string into *dst; null leaves it unchanged. Strings
// with escapes or non-ASCII bytes go through encoding/json so they get its
// unquoting (invalid UTF-8 becomes U+FFFD, surrogate pairs combine).
func (p *wireParser) scenario(dst *string) error {
	switch p.peek() {
	case 'n':
		return p.literal("null")
	case '"':
	default:
		return p.mismatch("scenario")
	}
	start := p.pos
	raw, plain, err := p.str()
	switch {
	case err != nil:
		return err
	case plain:
		*dst = string(raw)
		return nil
	default:
		return json.Unmarshal(p.data[start:p.pos], dst)
	}
}

// grow extends s to hold index i the way reflection's slice decode does:
// within capacity it re-exposes the element already there, beyond it the
// new element is zero.
func grow[T any](s []T, i int) []T {
	switch {
	case i < len(s):
		return s
	case i < cap(s):
		return s[:i+1]
	default:
		var zero T
		return append(s, zero)
	}
}

// truncate finishes a slice decode of n elements: the slice is cut to n,
// and an empty array decodes to a non-nil empty slice.
func truncate[T any](s []T, n int) []T {
	if n == 0 {
		return []T{}
	}
	return s[:n]
}

// The lexical layer: whitespace, structure, literals, numbers, strings and
// skipping arbitrary values, with encoding/json's grammar and depth limit.

// peek skips whitespace and returns the next byte, or 0 at the end of the
// input (a literal 0 byte is never valid JSON outside a string either).
func (p *wireParser) peek() byte {
	for ; p.pos < len(p.data); p.pos++ {
		switch c := p.data[p.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// errAt reports a syntax error at p.pos.
func (p *wireParser) errAt() error {
	if p.pos >= len(p.data) {
		return io.ErrUnexpectedEOF
	}
	return fmt.Errorf("invalid character %q at offset %d", p.data[p.pos], p.pos)
}

// mismatch reports a value of the wrong JSON type (or a syntax error when
// the next byte starts no value at all).
func (p *wireParser) mismatch(what string) error {
	var kind string
	switch c := p.peek(); {
	case c == '{':
		kind = "object"
	case c == '[':
		kind = "array"
	case c == '"':
		kind = "string"
	case c == 't' || c == 'f':
		kind = "bool"
	case c == 'n':
		kind = "null"
	case c == '-' || isDigit(c):
		kind = "number"
	default:
		return p.errAt()
	}
	return fmt.Errorf("cannot decode JSON %s at offset %d into %s", kind, p.pos, what)
}

// open consumes '[' or '{' and enforces the nesting limit.
func (p *wireParser) open() error {
	p.pos++
	p.depth++
	if p.depth > maxNestingDepth {
		return errors.New("exceeded max nesting depth")
	}
	return nil
}

// more advances over an array: it consumes the ',' before the next element
// or the closing ']' and reports whether an element follows. first is true
// right after the '['.
func (p *wireParser) more(first bool) (bool, error) {
	c := p.peek()
	switch {
	case c == ']' && first:
	case first:
		return true, nil
	case c == ',':
		p.pos++
		return true, nil
	case c != ']':
		return false, p.errAt()
	}
	p.pos++
	p.depth--
	return false, nil
}

// member advances over an object: it consumes the ',' and the next key
// with its ':' (returning the unescaped key), or the closing '}'.
func (p *wireParser) member(first bool) (key []byte, ok bool, err error) {
	c := p.peek()
	switch {
	case c == '}' && first:
		p.pos++
		p.depth--
		return nil, false, nil
	case first:
	case c == ',':
		p.pos++
		c = p.peek()
	case c == '}':
		p.pos++
		p.depth--
		return nil, false, nil
	default:
		return nil, false, p.errAt()
	}
	if c != '"' {
		return nil, false, p.errAt()
	}
	start := p.pos
	key, plain, err := p.str()
	if err != nil {
		return nil, false, err
	}
	if !plain {
		var s string
		if err := json.Unmarshal(p.data[start:p.pos], &s); err != nil {
			return nil, false, err
		}
		key = []byte(s)
	}
	if p.peek() != ':' {
		return nil, false, p.errAt()
	}
	p.pos++
	return key, true, nil
}

// literal consumes the keyword lit (true, false or null).
func (p *wireParser) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if p.pos >= len(p.data) || p.data[p.pos] != lit[i] {
			return p.errAt()
		}
		p.pos++
	}
	return nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// readNumber consumes the number at p.pos and returns its decimal value.
func (p *wireParser) readNumber() (decimal, error) {
	end, num, ok := scanNumber(p.data, p.pos)
	p.pos = end
	if !ok {
		return num, p.errAt()
	}
	return num, nil
}

// str consumes the string at p.pos and returns its raw contents. plain is
// false when they carry escapes or non-ASCII bytes and so need unquoting.
func (p *wireParser) str() (raw []byte, plain bool, err error) {
	d := p.data
	start := p.pos + 1
	plain = true
	for i := start; i < len(d); {
		switch c := d[i]; {
		case c == '"':
			p.pos = i + 1
			return d[start:i], plain, nil
		case c == '\\':
			plain = false
			i++
			if i >= len(d) {
				break
			}
			switch d[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				for k := 1; k <= 4; k++ {
					if i+k >= len(d) || !isHex(d[i+k]) {
						p.pos = i + k
						return nil, false, p.errAt()
					}
				}
				i += 5
			default:
				p.pos = i
				return nil, false, p.errAt()
			}
		case c < 0x20:
			p.pos = i
			return nil, false, p.errAt()
		default:
			if c >= 0x80 {
				plain = false
			}
			i++
		}
	}
	p.pos = len(d)
	return nil, false, p.errAt()
}

func isHex(c byte) bool {
	return isDigit(c) || ('a' <= c && c <= 'f') || ('A' <= c && c <= 'F')
}

// skip validates and consumes any JSON value.
func (p *wireParser) skip() error {
	switch c := p.peek(); {
	case c == '{':
		if err := p.open(); err != nil {
			return err
		}
		for first := true; ; first = false {
			_, ok, err := p.member(first)
			if err != nil || !ok {
				return err
			}
			if err := p.skip(); err != nil {
				return err
			}
		}
	case c == '[':
		if err := p.open(); err != nil {
			return err
		}
		for i := 0; ; i++ {
			more, err := p.more(i == 0)
			if err != nil || !more {
				return err
			}
			if err := p.skip(); err != nil {
				return err
			}
		}
	case c == '"':
		_, _, err := p.str()
		return err
	case c == 't':
		return p.literal("true")
	case c == 'f':
		return p.literal("false")
	case c == 'n':
		return p.literal("null")
	case c == '-' || isDigit(c):
		_, err := p.readNumber()
		return err
	default:
		return p.errAt()
	}
}
