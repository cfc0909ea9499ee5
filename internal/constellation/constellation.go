// Package constellation implements the finite alphabets Ω the MIMO
// transmitter draws symbols from: BPSK and the Gray-coded square QAM family
// (4-QAM/QPSK, 16-QAM, 64-QAM). The paper's designs support up to 16-QAM;
// 64-QAM is included for the scaling ablations.
//
// All constellations are normalized to unit average symbol energy so the SNR
// conventions in internal/channel hold regardless of modulation. Symbol
// indices coincide with the integer value of their Gray-coded bit label,
// which lets the decoders translate a detected point straight back to bits.
package constellation

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Modulation selects a constellation.
type Modulation int

const (
	// BPSK is binary phase-shift keying: 1 bit/symbol, points ±1.
	BPSK Modulation = iota
	// QAM4 is 4-QAM (QPSK): 2 bits/symbol. The paper calls this "4-QAM".
	QAM4
	// QAM16 is Gray-coded square 16-QAM: 4 bits/symbol.
	QAM16
	// QAM64 is Gray-coded square 64-QAM: 6 bits/symbol (scaling extension).
	QAM64
	// QAM256 is Gray-coded square 256-QAM: 8 bits/symbol. Included for
	// scaling studies; no FPGA design in this repository fits it (the
	// tree-state matrix scales with P²).
	QAM256
)

// String returns the paper's name for the modulation.
func (m Modulation) String() string {
	switch m {
	case BPSK:
		return "BPSK"
	case QAM4:
		return "4-QAM"
	case QAM16:
		return "16-QAM"
	case QAM64:
		return "64-QAM"
	case QAM256:
		return "256-QAM"
	default:
		return fmt.Sprintf("Modulation(%d)", int(m))
	}
}

// ParseModulation converts a CLI string ("bpsk", "4qam", "16qam", "64qam",
// also accepting "qpsk" and forms with dashes) into a Modulation.
func ParseModulation(s string) (Modulation, error) {
	switch normalize(s) {
	case "bpsk":
		return BPSK, nil
	case "qpsk", "4qam", "qam4":
		return QAM4, nil
	case "16qam", "qam16":
		return QAM16, nil
	case "64qam", "qam64":
		return QAM64, nil
	case "256qam", "qam256":
		return QAM256, nil
	default:
		return 0, fmt.Errorf("constellation: unknown modulation %q", s)
	}
}

func normalize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '-' || c == '_' || c == ' ' {
			continue
		}
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		out = append(out, c)
	}
	return string(out)
}

// Constellation is an immutable symbol alphabet. The zero value is not
// usable; construct with New.
type Constellation struct {
	mod           Modulation
	bitsPerSymbol int
	points        []complex128 // indexed by bit label
	// Square-QAM geometry for fast per-axis slicing. bitsPerAxis == 0 for
	// BPSK (real axis only).
	bitsPerAxis  int
	pamLevels    []float64 // amplitudes per axis-label (Gray order), scaled
	pamAscending []float64 // amplitudes in ascending order (PAM enumeration)
	scale        float64   // normalization factor applied to raw odd levels
}

// New constructs the constellation for the given modulation.
func New(mod Modulation) *Constellation {
	switch mod {
	case BPSK:
		return &Constellation{
			mod:           BPSK,
			bitsPerSymbol: 1,
			points:        []complex128{complex(-1, 0), complex(1, 0)},
			pamLevels:     []float64{-1, 1},
			scale:         1,
		}
	case QAM4, QAM16, QAM64, QAM256:
		bitsPerAxis := map[Modulation]int{QAM4: 1, QAM16: 2, QAM64: 3, QAM256: 4}[mod]
		return newSquareQAM(mod, bitsPerAxis)
	default:
		panic(fmt.Sprintf("constellation: unknown modulation %v", mod))
	}
}

// newSquareQAM builds a Gray-coded square QAM with 2^bitsPerAxis levels per
// axis, normalized to unit average energy. For L levels the raw amplitudes
// are the odd integers −(L−1)…(L−1) and the average energy of the square
// constellation is 2(L²−1)/3, giving the familiar 1/√2, 1/√10, 1/√42 scales.
func newSquareQAM(mod Modulation, bitsPerAxis int) *Constellation {
	levels := 1 << bitsPerAxis
	scale := 1 / math.Sqrt(2*float64(levels*levels-1)/3)

	// pamLevels[g] is the amplitude whose Gray label is g; pamAsc lists the
	// same amplitudes in ascending order (position order on the grid).
	pam := make([]float64, levels)
	pamAsc := make([]float64, levels)
	for pos := 0; pos < levels; pos++ {
		amplitude := float64(2*pos-(levels-1)) * scale
		pamAsc[pos] = amplitude
		g := grayEncode(pos)
		pam[g] = amplitude
	}

	bits := 2 * bitsPerAxis
	points := make([]complex128, 1<<bits)
	for label := range points {
		iLabel := label >> bitsPerAxis
		qLabel := label & (levels - 1)
		points[label] = complex(pam[iLabel], pam[qLabel])
	}
	return &Constellation{
		mod:           mod,
		bitsPerSymbol: bits,
		points:        points,
		bitsPerAxis:   bitsPerAxis,
		pamLevels:     pam,
		pamAscending:  pamAsc,
		scale:         scale,
	}
}

// grayEncode maps a position index to its Gray code.
func grayEncode(pos int) int { return pos ^ (pos >> 1) }

// grayDecode inverts grayEncode.
func grayDecode(g int) int {
	pos := 0
	for ; g != 0; g >>= 1 {
		pos ^= g
	}
	return pos
}

// Modulation returns the constellation's modulation identifier.
func (c *Constellation) Modulation() Modulation { return c.mod }

// Size returns |Ω|, the number of constellation points. The paper calls this
// the modulation factor P: the branching degree of the search tree.
func (c *Constellation) Size() int { return len(c.points) }

// BitsPerSymbol returns log2|Ω|.
func (c *Constellation) BitsPerSymbol() int { return c.bitsPerSymbol }

// Points returns the alphabet indexed by bit label. The returned slice is
// shared; callers must not modify it.
func (c *Constellation) Points() []complex128 { return c.points }

// Symbol returns the point whose Gray-coded bit label equals idx.
func (c *Constellation) Symbol(idx int) complex128 { return c.points[idx] }

// BitsOf writes the bit label of symbol idx into dst (MSB first) and returns
// dst. dst must have length BitsPerSymbol.
func (c *Constellation) BitsOf(idx int, dst []int) []int {
	if len(dst) != c.bitsPerSymbol {
		panic(fmt.Sprintf("constellation: BitsOf needs %d slots, got %d", c.bitsPerSymbol, len(dst)))
	}
	for b := 0; b < c.bitsPerSymbol; b++ {
		dst[b] = (idx >> (c.bitsPerSymbol - 1 - b)) & 1
	}
	return dst
}

// Index packs MSB-first bits into a symbol index.
func (c *Constellation) Index(bits []int) int {
	if len(bits) != c.bitsPerSymbol {
		panic(fmt.Sprintf("constellation: Index needs %d bits, got %d", c.bitsPerSymbol, len(bits)))
	}
	idx := 0
	for _, b := range bits {
		if b != 0 && b != 1 {
			panic(fmt.Sprintf("constellation: bit value %d", b))
		}
		idx = idx<<1 | b
	}
	return idx
}

// MapBits maps a bit stream onto symbols. len(bits) must be a multiple of
// BitsPerSymbol.
func (c *Constellation) MapBits(bits []int) []complex128 {
	if len(bits)%c.bitsPerSymbol != 0 {
		panic(fmt.Sprintf("constellation: %d bits not divisible by %d", len(bits), c.bitsPerSymbol))
	}
	out := make([]complex128, len(bits)/c.bitsPerSymbol)
	for i := range out {
		out[i] = c.points[c.Index(bits[i*c.bitsPerSymbol:(i+1)*c.bitsPerSymbol])]
	}
	return out
}

// PAMLevels returns the per-axis amplitudes of a square QAM in ascending
// order — the one-dimensional alphabet the real-valued-decomposition tree
// branches over. It returns nil for BPSK (no square-QAM geometry). The
// returned slice is shared; callers must not modify it.
func (c *Constellation) PAMLevels() []float64 {
	if c.bitsPerAxis == 0 {
		return nil
	}
	return c.pamAscending
}

// PAMLabel returns the Gray-coded axis label of the i-th ascending PAM
// level, so a real-valued decoder can rebuild a symbol index as
// PAMLabel(i)<<BitsPerAxis() | PAMLabel(q) without a geometric re-slice.
func (c *Constellation) PAMLabel(i int) int { return grayEncode(i) }

// BitsPerAxis returns log2 of the per-axis PAM size (0 for BPSK).
func (c *Constellation) BitsPerAxis() int { return c.bitsPerAxis }

// Slice returns the index of the constellation point nearest to z in
// Euclidean distance. For square QAM this runs in O(1) per axis; ties break
// toward the lower amplitude, matching the exhaustive tie-break on index
// order only up to measure-zero boundaries (tested with a tolerance).
func (c *Constellation) Slice(z complex128) int {
	if c.mod == BPSK {
		if real(z) >= 0 {
			return 1
		}
		return 0
	}
	iLabel := c.sliceAxis(real(z))
	qLabel := c.sliceAxis(imag(z))
	return iLabel<<c.bitsPerAxis | qLabel
}

// sliceAxis maps an amplitude to the Gray label of the nearest PAM level.
func (c *Constellation) sliceAxis(x float64) int {
	levels := 1 << c.bitsPerAxis
	// Position on the odd-integer grid: x/scale in [-(L-1), L-1].
	pos := int(math.Round((x/c.scale + float64(levels-1)) / 2))
	if pos < 0 {
		pos = 0
	}
	if pos > levels-1 {
		pos = levels - 1
	}
	return grayEncode(pos)
}

// SliceExhaustive is the reference nearest-point search used to
// property-test Slice.
func (c *Constellation) SliceExhaustive(z complex128) int {
	best, bestDist := 0, math.Inf(1)
	for i, p := range c.points {
		d := cmplx.Abs(z - p)
		if d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// SliceVector slices every element of zs, returning symbol indices.
func (c *Constellation) SliceVector(zs []complex128) []int {
	out := make([]int, len(zs))
	for i, z := range zs {
		out[i] = c.Slice(z)
	}
	return out
}

// AvgEnergy returns the average symbol energy E|s|² (should be 1).
func (c *Constellation) AvgEnergy() float64 {
	sum := 0.0
	for _, p := range c.points {
		sum += real(p)*real(p) + imag(p)*imag(p)
	}
	return sum / float64(len(c.points))
}

// MaxMagnitude returns the largest |s| over the constellation's points.
func (c *Constellation) MaxMagnitude() float64 {
	m := 0.0
	for _, p := range c.points {
		m = max(m, cmplx.Abs(p))
	}
	return m
}

// MinDistance returns the minimum Euclidean distance between distinct
// constellation points, which governs high-SNR error behaviour.
func (c *Constellation) MinDistance() float64 {
	min := math.Inf(1)
	for i := range c.points {
		for j := i + 1; j < len(c.points); j++ {
			if d := cmplx.Abs(c.points[i] - c.points[j]); d < min {
				min = d
			}
		}
	}
	return min
}

// HammingDistance counts differing bits between two symbol indices.
func (c *Constellation) HammingDistance(a, b int) int {
	x := a ^ b
	n := 0
	for x != 0 {
		n += x & 1
		x >>= 1
	}
	return n
}
