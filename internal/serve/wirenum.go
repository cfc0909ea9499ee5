package serve

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
)

// Wire numbers: one pass over a JSON number that checks its grammar and
// collects its decimal value, then an exact conversion to float64 for the
// values the fast paths can decide. Every float they return is the
// correctly rounded value, so it is bit-identical to strconv.ParseFloat
// (and encoding/json); the rest go to strconv.ParseFloat unchanged.

// decimal is a scanned number: man × 10^exp10, negated when neg. man holds
// the first maxMantDigits significant digits; exact is false when a
// dropped digit was not zero or the exponent is too large to track, so the
// value needs the general conversion.
type decimal struct {
	man   uint64
	exp10 int
	neg   bool
	exact bool
}

const (
	// maxMantDigits is how many significant digits fit a uint64 mantissa.
	maxMantDigits = 19
	// maxExp caps the exponent the scanner accumulates; anything that
	// large is far outside the fast window and is only carried to
	// strconv.ParseFloat.
	maxExp = 100000
)

// scanNumber consumes the number at d[i:] in JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns the offset
// just past it with its decimal value. ok is false on a grammar error,
// with end at the offending byte.
func scanNumber(d []byte, i int) (end int, num decimal, ok bool) {
	var man uint64
	exp10, nd, exact := 0, 0, true
	if i >= len(d) {
		return i, num, false
	}
	// Branch-free: the sign is as likely as not.
	num.neg = d[i] == '-'
	i += int(b2u(num.neg))
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		for ; i < len(d) && d[i]-'0' < 10 && nd < maxMantDigits; i++ {
			man = man*10 + uint64(d[i]-'0')
			nd++
		}
		// Dropped integer digits scale the mantissa.
		mark := i
		for ; i < len(d) && d[i]-'0' < 10; i++ {
			exact = exact && d[i] == '0'
		}
		exp10 += i - mark
	default:
		return i, num, false
	}
	if i < len(d) && d[i] == '.' {
		i++
		start := i
		if man == 0 {
			// Leading zeros only move the decimal point.
			for i < len(d) && d[i] == '0' {
				i++
			}
		}
		for nd+8 <= maxMantDigits && i+8 <= len(d) {
			v := binary.LittleEndian.Uint64(d[i:])
			if !eightDigits(v) {
				break
			}
			man = man*1e8 + parseEightDigits(v)
			nd += 8
			i += 8
		}
		for ; i < len(d) && d[i]-'0' < 10 && nd < maxMantDigits; i++ {
			man = man*10 + uint64(d[i]-'0')
			nd++
		}
		exp10 -= i - start
		for ; i < len(d) && d[i]-'0' < 10; i++ {
			exact = exact && d[i] == '0'
		}
		if i == start {
			return i, num, false
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		neg := false
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			neg = d[i] == '-'
			i++
		}
		start := i
		e := 0
		for ; i < len(d) && d[i]-'0' < 10; i++ {
			if e < maxExp {
				e = e*10 + int(d[i]-'0')
			} else {
				exact = false
			}
		}
		if i == start {
			return i, num, false
		}
		if neg {
			e = -e
		}
		exp10 += e
	}
	num.man, num.exp10, num.exact = man, exp10, exact
	return i, num, true
}

// b2u is 1 for true and 0 for false.
func b2u(b bool) uint8 {
	var u uint8
	if b {
		u = 1
	}
	return u
}

// eightDigits reports whether the eight little-endian bytes in v are all
// ASCII digits.
func eightDigits(v uint64) bool {
	return (v&0xF0F0F0F0F0F0F0F0)|((v+0x0606060606060606)&0xF0F0F0F0F0F0F0F0)>>4 == 0x3333333333333333
}

// parseEightDigits returns the value of the eight ASCII digits in v, the
// first digit in the low byte, by the multiply-and-shift conversion
// simdjson and fast_float use.
func parseEightDigits(v uint64) uint64 {
	const mask = 0x000000FF000000FF
	v -= 0x3030303030303030
	v = v*10 + v>>8
	return (v&mask*(100+1000000<<32) + (v>>16)&mask*(1+10000<<32)) >> 32
}

// float64 converts num exactly when it can: Clinger's case (a mantissa
// below 2^53 times or over an exactly representable power of ten, one
// correctly rounded operation) or Eisel–Lemire over the power-of-ten
// window. ok is false for everything else, which strconv.ParseFloat must
// decide: truncated mantissas, exponents outside the window, the rare
// products Eisel–Lemire cannot round, and out-of-range values.
func (num decimal) float64() (f float64, ok bool) {
	switch {
	case !num.exact:
		return 0, false
	case num.man == 0:
		// Zero at any exponent; the sign survives.
		if num.neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	case num.man < 1<<53 && -22 <= num.exp10 && num.exp10 <= 22:
		f = float64(num.man)
		if num.exp10 >= 0 {
			f *= exactPow10[num.exp10]
		} else {
			f /= exactPow10[-num.exp10]
		}
		if num.neg {
			f = -f
		}
		return f, true
	}
	return eiselLemire64(num.man, num.exp10, num.neg)
}

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	1e20, 1e21, 1e22,
}

// The Eisel–Lemire window: pow10Table covers 10^minPow10 … 10^maxPow10.
// Wire encoders write values of modest magnitude (json.Marshal switches
// to exponent form only below 1e-6 and from 1e21), so ±64 keeps the table
// small while still taking nearly every number on the wire.
const (
	minPow10 = -64
	maxPow10 = 64
)

// pow10Table holds 128-bit approximations of the powers of ten, each the
// top 128 bits of 10^e rounded down ({low, high} words), with the binary
// exponent implied by the slope 217706/65536 ≈ log2(10). It is the same
// table strconv's Eisel–Lemire uses, cut to the window.
var pow10Table = buildPow10Table()

func buildPow10Table() *[maxPow10 - minPow10 + 1][2]uint64 {
	var t [maxPow10 - minPow10 + 1][2]uint64
	ten := big.NewInt(10)
	mask := new(big.Int).SetUint64(math.MaxUint64)
	for e := minPow10; e <= maxPow10; e++ {
		n := int64(e)
		if n < 0 {
			n = -n
		}
		p := new(big.Int).Exp(ten, big.NewInt(n), nil)
		v := new(big.Int)
		if e >= 0 {
			// Shift 10^e to exactly 128 bits, truncating.
			if n := p.BitLen(); n > 128 {
				v.Rsh(p, uint(n-128))
			} else {
				v.Lsh(p, uint(128-n))
			}
		} else {
			// ⌊2^k / 10^|e|⌋ with k chosen so the quotient has 128 bits:
			// 10^|e| lies in [2^(n-1), 2^n), so 2^(127+n)/10^|e| lies in
			// (2^127, 2^128).
			v.Lsh(big.NewInt(1), uint(127+p.BitLen()))
			v.Quo(v, p)
		}
		t[e-minPow10][1] = new(big.Int).Rsh(v, 64).Uint64()
		t[e-minPow10][0] = v.And(v, mask).Uint64()
	}
	return &t
}

// eiselLemire64 is the Go standard library's Eisel–Lemire
// (src/strconv/eisel_lemire.go, Copyright 2020 The Go Authors, BSD-style
// licence; the comments name sections of Nigel Tao's write-up of the
// algorithm) over pow10Table. It returns the correctly rounded man × 10^exp10, or
// ok false where it cannot decide: outside the window, a halfway case, or
// a subnormal or infinite result.
func eiselLemire64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	// Exp10 Range (man is never zero here).
	if exp10 < minPow10 || maxPow10 < exp10 {
		return 0, false
	}
	pow := &pow10Table[exp10-minPow10]

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, pow[1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2++
	}
	// A zero or wrapped retExp2 is subnormal, 0x7FF or above is Inf/NaN:
	// both go to the general conversion.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}
