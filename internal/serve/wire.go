package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
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
// the fast path. An h value byte-identical to one already parsed in the
// same body is copied instead of scanned again (channelMemo), and the
// decoded pairs and row headers are carved out of chunks sized from the
// body (slab) instead of one allocation per matrix and per y. Accepted
// inputs and decoded values match exactly what encoding/json's reflection
// decoder (json.Decoder with DisallowUnknownFields) makes of the same
// struct, quirks included:
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

// wireParser is the cursor over one body. The scratch slices and the
// memo's tables are reused across parses through parserPool; nothing a
// parse decodes or remembers is.
type wireParser struct {
	data  []byte
	pos   int
	depth int
	// pairs stages freshly decoded [re, im] pairs before they are copied
	// into an exactly sized slice carved from pairSlab; rowEnds records
	// where each h row ends in it (-1 for a null row).
	pairs   [][2]float64
	rowEnds []int
	// pairSlab and rowSlab hold this body's decoded pairs and h row
	// headers.
	pairSlab slab[[2]float64]
	rowSlab  slab[[][2]float64]
	memo     channelMemo
}

// Pooled scratch and body buffers are dropped rather than kept when one
// request grew them past these sizes, so a single huge body does not pin
// its memory for the life of the process.
const (
	maxPooledPairs = 1 << 16
	maxPooledBody  = 1 << 20
)

// The first chunk of a slab is sized from the body at these many body
// bytes per element (json.Marshal writes a float pair in about 40 bytes,
// and a 4×4 channel row in about 180); later chunks extrapolate the
// density the body has shown so far.
const (
	bytesPerPair = 40
	bytesPerRow  = 200
)

var (
	parserPool = sync.Pool{New: func() any { return newWireParser() }}
	bodyPool   = sync.Pool{New: func() any { return new(bytes.Buffer) }}
)

func newWireParser() *wireParser {
	p := new(wireParser)
	p.pairSlab.bytesPer, p.rowSlab.bytesPer = bytesPerPair, bytesPerRow
	return p
}

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
	p.pairSlab.reset()
	p.rowSlab.reset()
	p.memo.reset()
	if len(p.memo.slots) > maxPooledSlots {
		p.memo.slots, p.memo.entries = nil, nil
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
	start := p.pos
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
		if i > 0 && i == cap(fr) {
			fr = p.reserveFrames(fr, start)
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

// reserveFrames moves the len(fr) == cap(fr) frames decoded so far into a
// slice with room for as many more as the rest of the body holds at their
// average size, so an envelope's frames land in about one allocation
// instead of a doubling series. It reserves at least double, as append
// would, and at most one frame per 32 body bytes left; the new elements
// are zero, as grow requires of elements past the old capacity.
func (p *wireParser) reserveFrames(fr []DecodeRequest, start int) []DecodeRequest {
	rest := len(p.data) - p.pos
	per := max((p.pos-start)/len(fr), 32)
	out := make([]DecodeRequest, len(fr), len(fr)+max(len(fr), rest/per+1))
	copy(out, fr)
	return out
}

// matrix decodes h into *dst. A fresh matrix is staged in p.pairs and
// copied into one exactly sized slice carved from p.pairSlab that the
// rows sub-slice, unless the memo holds a byte-identical h from earlier
// in the body, whose rows are then copied instead.
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
		// Rewriting rows in place could change rows the memo remembers.
		p.memo.reset()
		return p.matrixInto(dst)
	}
	start, depth := p.pos, p.depth
	hash, slot := p.memo.lookup(p.data, start)
	if e := p.memo.find(slot, p.data, start, depth); e != nil {
		*dst = p.copyRows(e.rows)
		p.pos += e.end - e.start
		return nil
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
	backing := p.pairSlab.take(len(p.pairs)-mark, p.pos, len(p.data))
	copy(backing, p.pairs[mark:])
	p.pairs = p.pairs[:mark]
	rows := p.rowSlab.take(len(p.rowEnds), p.pos, len(p.data))
	off := 0
	for i, end := range p.rowEnds {
		if end >= 0 {
			end -= mark
			rows[i] = backing[off:end:end]
			off = end
		}
	}
	p.memo.remember(hash, slot, start, p.pos, depth, rows)
	*dst = rows
	return nil
}

// copyRows lays a copy of rows out the way a fresh parse of the same
// bytes would: one slice of pairs that the rows sub-slice, null rows nil.
func (p *wireParser) copyRows(rows [][][2]float64) [][][2]float64 {
	n := 0
	for _, row := range rows {
		n += len(row)
	}
	backing := p.pairSlab.take(n, p.pos, len(p.data))
	out := p.rowSlab.take(len(rows), p.pos, len(p.data))
	off := 0
	for i, row := range rows {
		if row != nil {
			end := off + copy(backing[off:], row)
			out[i] = backing[off:end:end]
			off = end
		}
	}
	return out
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
		out := p.pairSlab.take(len(p.pairs)-mark, p.pos, len(p.data))
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

// slab carves exactly sized slices, each capped at its own length, out of
// chunks allocated while one body is parsed. The decoded request keeps
// pointing into them, so a chunk is never reused for another body.
type slab[T any] struct {
	free     []T // the unused tail of the current chunk
	used     int // elements carved for this body so far
	bytesPer int // body bytes per element assumed for the first chunk
}

// take returns a zeroed slice of n elements. A new chunk holds room for
// the rest of the body, consumed of whose total bytes have been parsed:
// at bytesPer for the first chunk, at the density seen so far after that.
// An empty slice is non-nil, as a fresh decode of [] is.
func (s *slab[T]) take(n, consumed, total int) []T {
	if n == 0 {
		return []T{}
	}
	if n > len(s.free) {
		rest := total - consumed
		more := rest / s.bytesPer
		if s.used > 0 {
			more = int(int64(s.used) * int64(rest) / int64(max(consumed, 1)))
		}
		s.free = make([]T, n+more)
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	s.used += n
	return out
}

// reset drops the current chunk: what is left of it belongs to the body
// just parsed.
func (s *slab[T]) reset() { s.free, s.used = nil, 0 }

// channelMemo remembers the h values parsed in one body, so a channel an
// envelope repeats (an OFDM coherence block sends each one to many
// subcarriers) is copied instead of scanned again. A value is looked up
// by a hash of its first memoPrefix bytes in an open-addressed table and
// confirmed by comparing the whole remembered span byte for byte at the
// same nesting depth: the bytes of a value and its depth decide
// everything its parse does, the nesting limit included, so a hit decodes
// exactly what a fresh parse would. A table slot holds the latest value
// with its hash, so a lookup costs one hash, a short probe and at most
// one span comparison. Only successfully parsed fresh matrices are
// remembered, and rewriting rows in place (matrixInto) forgets everything
// first.
type channelMemo struct {
	gen     uint32   // stamps this body's slots; 0 is never current
	slots   []uint64 // gen<<32 | index into entries; a power of two long
	entries []memoEntry
}

// memoEntry is one remembered h: its prefix hash, its span in the body,
// the depth it was parsed at and the rows it decoded to.
type memoEntry struct {
	hash              uint64
	start, end, depth int
	rows              [][][2]float64
}

const (
	memoPrefix = 64
	// A table starts at minMemoSlots and doubles to stay at most half
	// full; one larger than maxPooledSlots is not kept for the next body.
	minMemoSlots   = 64
	maxPooledSlots = 1 << 12
)

var memoSeed = maphash.MakeSeed()

// lookup hashes the value at data[start] and returns the hash with the
// slot that holds a value of that hash, or the free slot where it goes.
func (m *channelMemo) lookup(data []byte, start int) (hash uint64, slot int) {
	if m.slots == nil {
		m.slots = make([]uint64, minMemoSlots)
	}
	if m.gen == 0 {
		m.gen = 1
	}
	hash = maphash.Bytes(memoSeed, data[start:min(start+memoPrefix, len(data))])
	mask := len(m.slots) - 1
	for slot = int(hash) & mask; ; slot = (slot + 1) & mask {
		if s := m.slots[slot]; uint32(s>>32) != m.gen || m.entries[uint32(s)].hash == hash {
			return hash, slot
		}
	}
}

// find returns the entry in slot whose span the bytes at data[start]
// repeat at the same depth, or nil.
func (m *channelMemo) find(slot int, data []byte, start, depth int) *memoEntry {
	s := m.slots[slot]
	if uint32(s>>32) != m.gen {
		return nil
	}
	e := &m.entries[uint32(s)]
	n := e.end - e.start
	if e.depth != depth || len(data)-start < n || !bytes.Equal(data[start:start+n], data[e.start:e.end]) {
		return nil
	}
	return e
}

// remember records in slot, found by lookup for hash, that
// data[start:end], parsed at depth, decoded to rows.
func (m *channelMemo) remember(hash uint64, slot, start, end, depth int, rows [][][2]float64) {
	m.slots[slot] = uint64(m.gen)<<32 | uint64(len(m.entries))
	m.entries = append(m.entries, memoEntry{hash: hash, start: start, end: end, depth: depth, rows: rows})
	if 2*len(m.entries) > len(m.slots) {
		m.grow()
	}
}

// grow doubles the table and re-enters this body's values in the order
// they were remembered, so a later value still replaces an earlier one
// of the same hash.
func (m *channelMemo) grow() {
	m.slots = make([]uint64, 2*len(m.slots))
	mask := len(m.slots) - 1
	for k := range m.entries {
		slot := int(m.entries[k].hash) & mask
		for {
			s := m.slots[slot]
			if uint32(s>>32) != m.gen || m.entries[uint32(s)].hash == m.entries[k].hash {
				break
			}
			slot = (slot + 1) & mask
		}
		m.slots[slot] = uint64(m.gen)<<32 | uint64(k)
	}
}

// reset forgets every entry.
func (m *channelMemo) reset() {
	clear(m.entries)
	m.entries = m.entries[:0]
	if m.gen++; m.gen == 0 {
		clear(m.slots)
		m.gen = 1
	}
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
