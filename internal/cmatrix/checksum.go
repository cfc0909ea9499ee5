package cmatrix

import "math"

// Word-mix FNV-1a constants of the payload checksums.
const (
	checksumOffset64 = 14695981039346656037
	checksumPrime64  = 1099511628211
)

// PayloadChecksum returns a 64-bit integrity checksum over the raw bit
// patterns of every element, mixing whole 64-bit words instead of bytes.
// It is meant for silent-data-corruption detection on cached payloads (QR
// factors, real-embedded R), not for hash keying: the multiply is
// bijective, so any single-word corruption — any bit flip, including ones
// that produce NaN/Inf — changes the checksum.
//
// The words are folded through four independent FNV-style lanes combined at
// the end: the serial xor-multiply dependency chain is the latency bound of
// the one-lane form, and splitting it gives the superscalar core ~4x the
// throughput on the verify-on-hit path. Every word still lands in exactly
// one lane's bijective chain, and the final combine is injective in each
// lane, so the single-word-corruption guarantee is unchanged.
func (m *Matrix) PayloadChecksum() uint64 {
	h0 := (uint64(checksumOffset64) ^ uint64(m.Rows)) * checksumPrime64
	h1 := (uint64(checksumOffset64) ^ uint64(m.Cols)) * checksumPrime64
	return complexChecksum(h0, h1, m.Data)
}

// complexChecksum folds data through the four lanes, seeding lanes 0 and 1
// with the caller's shape words.
func complexChecksum(h0, h1 uint64, d []complex128) uint64 {
	h2, h3 := uint64(checksumOffset64), uint64(checksumOffset64)
	for len(d) >= 2 {
		h0 = (h0 ^ math.Float64bits(real(d[0]))) * checksumPrime64
		h1 = (h1 ^ math.Float64bits(imag(d[0]))) * checksumPrime64
		h2 = (h2 ^ math.Float64bits(real(d[1]))) * checksumPrime64
		h3 = (h3 ^ math.Float64bits(imag(d[1]))) * checksumPrime64
		d = d[2:]
	}
	if len(d) == 1 {
		h0 = (h0 ^ math.Float64bits(real(d[0]))) * checksumPrime64
		h1 = (h1 ^ math.Float64bits(imag(d[0]))) * checksumPrime64
	}
	return mixLanes(h0, h1, h2, h3)
}

// mixLanes folds the four lane accumulators into one word; the chain is
// injective in each argument, so a change in any lane changes the result.
func mixLanes(h0, h1, h2, h3 uint64) uint64 {
	h := uint64(checksumOffset64)
	h = (h ^ h0) * checksumPrime64
	h = (h ^ h1) * checksumPrime64
	h = (h ^ h2) * checksumPrime64
	h = (h ^ h3) * checksumPrime64
	return h
}

// PayloadChecksum is the vector form of Matrix.PayloadChecksum (same
// four-lane structure, seeded with the length).
func (v Vector) PayloadChecksum() uint64 {
	h0 := (uint64(checksumOffset64) ^ uint64(len(v))) * checksumPrime64
	return complexChecksum(h0, checksumOffset64, v)
}

// Float64Checksum is the real-valued form of PayloadChecksum (same
// four-lane structure), used for the real-embedded upper-triangular factor
// derived from a cached complex QR.
func Float64Checksum(data []float64) uint64 {
	h0 := (uint64(checksumOffset64) ^ uint64(len(data))) * checksumPrime64
	h1, h2, h3 := uint64(checksumOffset64), uint64(checksumOffset64), uint64(checksumOffset64)
	for len(data) >= 4 {
		h0 = (h0 ^ math.Float64bits(data[0])) * checksumPrime64
		h1 = (h1 ^ math.Float64bits(data[1])) * checksumPrime64
		h2 = (h2 ^ math.Float64bits(data[2])) * checksumPrime64
		h3 = (h3 ^ math.Float64bits(data[3])) * checksumPrime64
		data = data[4:]
	}
	for i, x := range data {
		switch i {
		case 0:
			h0 = (h0 ^ math.Float64bits(x)) * checksumPrime64
		case 1:
			h1 = (h1 ^ math.Float64bits(x)) * checksumPrime64
		default:
			h2 = (h2 ^ math.Float64bits(x)) * checksumPrime64
		}
	}
	return mixLanes(h0, h1, h2, h3)
}
