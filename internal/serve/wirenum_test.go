package serve

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
)

// wireFloat parses s as one number the way the wire parser does (scanner,
// exact fast paths, strconv fallback) and reports whether the fast path
// decided it.
func wireFloat(s string) (v float64, fast bool, err error) {
	p := wireParser{data: []byte(s)}
	err = p.float(&v, "test")
	if err == nil && p.pos != len(s) {
		err = p.errAt()
	}
	_, num, _ := scanNumber(p.data, 0)
	_, fast = num.float64()
	return v, fast, err
}

// numberEdges are numbers at the edges of the fast paths and of float64.
var numberEdges = []string{
	"0", "-0", "0.0", "-0.0e-0", "0e999999999999", "-0.000e-400",
	"5e-324", "4.9e-324", "2.4703282292062328e-324", "2.4703282292062327e-324",
	"2.2250738585072011e-308", "2.2250738585072012e-308", "2.2250738585072014e-308",
	"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
	"1e308", "1e309", "-1e309", "1e400", "1e-400",
	"9007199254740992", "9007199254740993", "9007199254740994", "9007199254740995",
	"1234567890123456789", "12345678901234567890", "9999999999999999999", "99999999999999999999",
	"1.234567890123456789", "1.2345678901234567891", "0.000000000000000000012345678901234567891",
	"100000000000000000000000", "100000000000000000000001", "1.00000000000000000001",
	// 2^66 + 2^13 is halfway between two doubles; one past it rounds up,
	// though its first 19 digits alone round down.
	"73786976294838214656", "73786976294838214657",
	"1e22", "1e23", "9007199254740991e22", "9007199254740993e22", "1e-22", "1e-23",
	"1e64", "1e65", "1e-64", "1e-65", "9.999999999999999e63", "1.0000000000000001e-64",
	"1234567890123456789e45", "1234567890123456789e46", "1234567890123456789e-83", "1234567890123456789e-82",
	"0.1", "0.2", "0.3", "-0.5", "1.5", "2.5", "1E+2", "1e-2", "1E2",
	"7.2057594037927933e16", "9007199254740993.0", "1.00000000000000011102230246251565404236316680908203125",
	"1.00000000000000011102230246251565404236316680908203124",
	"1.00000000000000011102230246251565404236316680908203126",
}

// TestWireNumberMatchesStrconv holds the number path to strconv.ParseFloat
// bit for bit, and to its accept/reject, over the edges above and a
// million seeded strings in the forms JSON encoders write: shortest 'g',
// fixed-precision 'e' (up to 25 digits, past what the fast path takes)
// and shortest 'f', of normal, random-bit and decade-scaled floats.
func TestWireNumberMatchesStrconv(t *testing.T) {
	check := func(s string) bool {
		t.Helper()
		got, fast, gerr := wireFloat(s)
		want, werr := strconv.ParseFloat(s, 64)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s: wire err %v, strconv err %v", s, gerr, werr)
		}
		if werr == nil && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: wire %v (%#016x), strconv %v (%#016x)", s, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		return fast
	}
	for _, s := range numberEdges {
		check(s)
	}

	// The check runs on one goroutine, so the race detector adds nothing
	// but a tenfold slowdown; its runs take a tenth of the strings.
	n := 1_000_000
	if raceEnabled {
		n = 100_000
	}
	r := rand.New(rand.NewPCG(1, 20))
	fast := 0
	buf := make([]byte, 0, 400)
	for i := 0; i < n; i++ {
		var x float64
		switch i % 3 {
		case 0:
			x = r.NormFloat64()
		case 1:
			if x = math.Float64frombits(r.Uint64()); math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
		default:
			x = r.Float64() * math.Pow(10, float64(r.IntN(161)-80))
			if r.IntN(2) == 0 {
				x = -x
			}
		}
		switch i / 3 % 3 {
		case 0:
			buf = strconv.AppendFloat(buf[:0], x, 'g', -1, 64)
		case 1:
			buf = strconv.AppendFloat(buf[:0], x, 'e', r.IntN(26), 64)
		default:
			buf = strconv.AppendFloat(buf[:0], x, 'f', -1, 64)
		}
		if check(string(buf)) {
			fast++
		}
	}
	t.Logf("%d seeded numbers, %.1f%% through the exact fast path", n, 100*float64(fast)/float64(n))
}

// TestTightPairMatchesGeneral: a whitespace-free pair decodes to the same
// bits whether or not the one-step path takes it, and falls back without
// consuming anything when it cannot.
func TestTightPairMatchesGeneral(t *testing.T) {
	for i, a := range numberEdges {
		b := numberEdges[(i*7+3)%len(numberEdges)]
		tight := "[" + a + "," + b + "]"
		var got, want [2]float64
		probe := wireParser{data: []byte(tight)}
		if !probe.tightPair(&got) && (probe.pos != 0 || got != [2]float64{}) {
			t.Fatalf("%s: declined tight path consumed %d bytes, wrote %v", tight, probe.pos, got)
		}
		p := wireParser{data: []byte(tight)}
		gerr := p.pair(&got)
		werr := json.Unmarshal([]byte(tight), &want)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s: wire err %v, encoding/json err %v", tight, gerr, werr)
		}
		if werr != nil {
			continue
		}
		if p.pos != len(tight) {
			t.Fatalf("%s: consumed %d of %d bytes", tight, p.pos, len(tight))
		}
		for k := range got {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("%s[%d]: wire %v, encoding/json %v", tight, k, got[k], want[k])
			}
		}
	}
}

// TestPairAtDepthEdges: the nesting seeds really sit on the limit, one
// accepted and one rejected by encoding/json itself.
func TestPairAtDepthEdges(t *testing.T) {
	if !json.Valid([]byte(pairAtDepth(maxNestingDepth))) {
		t.Error("pair at the nesting limit is not valid JSON")
	}
	if json.Valid([]byte(pairAtDepth(maxNestingDepth + 1))) {
		t.Error("pair past the nesting limit is valid JSON")
	}
}

// TestPow10Table checks window entries against strconv's own table
// (src/strconv/eisel_lemire.go).
func TestPow10Table(t *testing.T) {
	for _, c := range []struct {
		e      int
		lo, hi uint64
	}{
		{-64, 0x3F2398D747B36224, 0xA87FEA27A539E9A5},
		{-23, 0x75B7053C0F178293, 0xC16D9A0095928A27},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		{0, 0x0000000000000000, 0x8000000000000000},
		{28, 0x4000000000000000, 0x813F3978F8940984},
		{43, 0x6D9CCD05D0000000, 0xE596B7B0C643C719},
		{64, 0x3CBF6B71C76B25FB, 0xC2781F49FFCFA6D5},
	} {
		if got := pow10Table[c.e-minPow10]; got != [2]uint64{c.lo, c.hi} {
			t.Errorf("1e%d: got {%#016x, %#016x}, want {%#016x, %#016x}", c.e, got[0], got[1], c.lo, c.hi)
		}
	}
}
