package quantize

import (
	"fmt"

	"repro/internal/cmatrix"
	"repro/internal/decoder"
)

// Precision selects an arithmetic mode for the quantized kernels.
type Precision int

const (
	// FP32Accumulate stores operands in FP16 but accumulates dot products
	// in full precision — the mixed-precision mode FPGA DSP cascades
	// support cheaply, and the variant the paper's future work favors.
	FP32Accumulate Precision = iota
	// FP16Accumulate rounds after every multiply–add: the most aggressive
	// (and least accurate) mode.
	FP16Accumulate
)

// String names the precision mode.
func (p Precision) String() string {
	switch p {
	case FP32Accumulate:
		return "fp16-storage/fp32-acc"
	case FP16Accumulate:
		return "fp16-full"
	default:
		return fmt.Sprintf("Precision(%d)", int(p))
	}
}

// RoundMatrix returns a copy of a with every element squeezed through FP16.
func RoundMatrix(a *cmatrix.Matrix) *cmatrix.Matrix {
	out := a.Clone()
	for i, v := range out.Data {
		out.Data[i] = RoundComplex(v)
	}
	return out
}

// RoundVector returns a copy of v with every element squeezed through FP16.
func RoundVector(v cmatrix.Vector) cmatrix.Vector {
	out := make(cmatrix.Vector, len(v))
	for i, z := range v {
		out[i] = RoundComplex(z)
	}
	return out
}

// MulFP16 multiplies a×b with FP16 operand storage and the chosen
// accumulation mode. Operands are quantized on entry regardless of mode.
func MulFP16(a, b *cmatrix.Matrix, mode Precision) *cmatrix.Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("quantize: MulFP16 inner dims %d vs %d", a.Cols, b.Rows))
	}
	qa := RoundMatrix(a)
	qb := RoundMatrix(b)
	c := cmatrix.NewMatrix(a.Rows, b.Cols)
	for i := 0; i < qa.Rows; i++ {
		arow := qa.Row(i)
		crow := c.Row(i)
		for k := 0; k < qa.Cols; k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			brow := qb.Row(k)
			if mode == FP16Accumulate {
				for j := range crow {
					crow[j] = RoundComplex(crow[j] + RoundComplex(av*brow[j]))
				}
			} else {
				for j := range crow {
					crow[j] += av * brow[j]
				}
			}
		}
	}
	if mode == FP32Accumulate {
		// One output rounding, as the hardware writes FP16 results.
		for i := range c.Data {
			c.Data[i] = RoundComplex(c.Data[i])
		}
	}
	return c
}

// Problem is a quantized sphere-decoding input set: the channel, received
// vector, and noise variance after an FP16 data path. Feeding it to the
// full-precision decoder measures the BER/complexity impact of a
// half-precision front end, which is exactly the paper's proposed ablation.
type Problem struct {
	H        *cmatrix.Matrix
	Y        cmatrix.Vector
	NoiseVar float64
}

// QuantizeProblem rounds a decoding problem's inputs through FP16.
func QuantizeProblem(h *cmatrix.Matrix, y cmatrix.Vector, noiseVar float64) Problem {
	return Problem{
		H:        RoundMatrix(h),
		Y:        RoundVector(y),
		NoiseVar: Round(noiseVar),
	}
}

// Decoder wraps any detector with a half-precision front end: the channel
// estimate, received vector, and noise variance pass through binary16
// before detection, emulating an FPGA data path that stores and streams
// FP16 words. The wrapper implements decoder.Decoder.
type Decoder struct {
	Inner decoder.Decoder
}

// NewDecoder wraps inner with FP16 input quantization.
func NewDecoder(inner decoder.Decoder) *Decoder { return &Decoder{Inner: inner} }

// Name implements decoder.Decoder.
func (d *Decoder) Name() string { return d.Inner.Name() + "+fp16" }

// Decode implements decoder.Decoder.
func (d *Decoder) Decode(h *cmatrix.Matrix, y cmatrix.Vector, noiseVar float64) (*decoder.Result, error) {
	p := QuantizeProblem(h, y, noiseVar)
	return d.Inner.Decode(p.H, p.Y, p.NoiseVar)
}

// DSPSavingsFactor is the approximate DSP-slice reduction of an FP16 MAC
// relative to FP32 on UltraScale+ devices (one DSP48E2 handles a 16-bit
// multiply natively; FP32 needs a cascade). Used by the ablation report to
// translate precision into the resource model's terms.
const DSPSavingsFactor = 2.5
