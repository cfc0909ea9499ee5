package serve

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/constellation"
)

// Wire encode: the answer to POST /v1/decode is appended straight from the
// scheduler's *Response values into one pooled buffer and sent in a single
// Write with Content-Length. No DecodeResponse is built and no bits slice is
// materialised: each symbol's bit label is copied from a table the pooled
// encoder builds once per constellation with Constellation.BitsOf. The
// single-frame body and the envelope's per-frame entries share one field
// appender.
//
// The bytes are exactly what json.NewEncoder(w).Encode makes of the exported
// DecodeResponse / BatchDecodeResponse the old path built, for every value
// the server can produce:
//
//   - degraded_by, shed and a per-frame error are omitted when empty;
//   - nil symbol_indices is null, and bits is [] when there are no symbols;
//   - strings are HTML-escaped (<, >, & as \u003c, \u003e, \u0026; U+2028 and
//     U+2029 as \u2028 and \u2029; invalid UTF-8 as \ufffd);
//   - floats use the ES6 form: 'f' except 'e' below 1e-6 and at or above
//     1e21, with a single-digit negative exponent written e-7, not e-07;
//   - the body ends in a newline.
//
// Where encoding/json fails (a NaN or infinite metric) the appender fails
// too, and the handler answers a typed 500 instead of a partial body.
// FuzzEncodeResponse holds the appender to that contract.

// encoder is the pooled per-response state: the body buffer, and the
// comma-joined bit labels of every symbol of the constellation it last
// encoded for, built once from BitsOf. Label i is labels[i*width:][:width].
type encoder struct {
	buf    []byte
	cons   *constellation.Constellation
	labels []byte
	width  int
}

var encoderPool = sync.Pool{New: func() any { return new(encoder) }}

func getEncoder(cons *constellation.Constellation) *encoder {
	e := encoderPool.Get().(*encoder)
	e.buf = e.buf[:0]
	if e.cons != cons {
		bps := cons.BitsPerSymbol()
		bits := make([]int, bps)
		e.cons, e.width, e.labels = cons, 2*bps-1, e.labels[:0]
		for idx := 0; idx < 1<<bps; idx++ {
			for j, bit := range cons.BitsOf(idx, bits) {
				if j > 0 {
					e.labels = append(e.labels, ',')
				}
				e.labels = append(e.labels, '0'+byte(bit)) // BitsOf yields 0 or 1
			}
		}
	}
	return e
}

// putEncoder returns e to the pool unless one large response grew its
// buffer past the retention cap wire.go applies to request bodies.
func putEncoder(e *encoder) {
	if cap(e.buf) <= maxPooledBody {
		encoderPool.Put(e)
	}
}

// appendDecodeResponse appends the single-frame answer for resp.
func (e *encoder) appendDecodeResponse(resp *Response) error {
	e.buf = append(e.buf, '{')
	if err := e.appendFields(resp); err != nil {
		return err
	}
	e.buf = append(e.buf, "}\n"...)
	return nil
}

// appendBatchDecodeResponse appends the envelope answer for out, one entry
// per frame in order.
func (e *encoder) appendBatchDecodeResponse(out []result) error {
	e.buf = append(e.buf, `{"api_version":"`+APIVersion+`","results":[`...)
	for i, r := range out {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = append(e.buf, '{')
		if r.err != nil {
			if msg := r.err.Error(); msg != "" {
				e.buf = append(e.buf, `"error":`...)
				e.buf = appendJSONString(e.buf, msg)
			}
		} else if err := e.appendFields(r.out); err != nil {
			return err
		}
		e.buf = append(e.buf, '}')
	}
	e.buf = append(e.buf, "]}\n"...)
	return nil
}

// appendFields appends DecodeResponse's members, in declaration order,
// without the enclosing braces.
func (e *encoder) appendFields(resp *Response) error {
	res := resp.Result
	b := append(e.buf, `"api_version":"`+APIVersion+`","symbol_indices":`...)
	if res.SymbolIdx == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, idx := range res.SymbolIdx {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(idx), 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"bits":[`...)
	// BitsOf reads only the low BitsPerSymbol bits of an index.
	mask := len(e.labels)/e.width - 1
	for i, idx := range res.SymbolIdx {
		if i > 0 {
			b = append(b, ',')
		}
		k := (idx & mask) * e.width
		b = append(b, e.labels[k:k+e.width]...)
	}
	b = append(b, `],"metric":`...)
	b, err := appendJSONFloat(b, res.Metric)
	if err != nil {
		return err
	}
	b = append(b, `,"nodes_explored":`...)
	b = strconv.AppendInt(b, res.Counters.NodesExpanded, 10)
	b = append(b, `,"quality":`...)
	b = appendJSONString(b, res.Quality.String())
	if res.DegradedBy != "" {
		b = append(b, `,"degraded_by":`...)
		b = appendJSONString(b, res.DegradedBy)
	}
	b = append(b, `,"batch_size":`...)
	b = strconv.AppendInt(b, int64(resp.BatchSize), 10)
	b = append(b, `,"queue_wait_ns":`...)
	b = strconv.AppendInt(b, int64(resp.QueueWait), 10)
	b = append(b, `,"service_ns":`...)
	b = strconv.AppendInt(b, int64(resp.Service), 10)
	b = append(b, `,"simulated_ns":`...)
	b = strconv.AppendInt(b, int64(resp.SimulatedTime), 10)
	if resp.Shed {
		b = append(b, `,"shed":true`...)
	}
	e.buf = b
	return nil
}

// appendJSONFloat appends f as encoding/json writes a float64, and fails
// where it fails (NaN, ±Inf).
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("serve: encode response: unsupported metric %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7, as encoding/json does.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// htmlSafe marks the ASCII bytes encoding/json copies into a string
// unescaped with HTML escaping on: every printable character except
// ", \, <, > and &.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// appendJSONString appends s as a JSON string exactly as encoding/json's
// HTML-escaping encoder does.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
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
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// writeBody sends a complete JSON body in one Write with its length, so the
// response is never chunked.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	// A failed write means the client is gone; there is nobody to tell.
	_, _ = w.Write(body)
}

// writeDecode answers a single-frame decode.
func (h *handler) writeDecode(w http.ResponseWriter, resp *Response) {
	e := getEncoder(h.s.Backend().Constellation())
	defer putEncoder(e)
	if err := e.appendDecodeResponse(resp); err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	writeBody(w, http.StatusOK, e.buf)
}

// writeBatchDecode answers an envelope with its per-frame outcomes.
func (h *handler) writeBatchDecode(w http.ResponseWriter, out []result) {
	e := getEncoder(h.s.Backend().Constellation())
	defer putEncoder(e)
	if err := e.appendBatchDecodeResponse(out); err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	writeBody(w, http.StatusOK, e.buf)
}
