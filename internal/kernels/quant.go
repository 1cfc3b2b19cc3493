// Quantized row codecs and fused dequantize-scale-accumulate kernels.
//
// One reduced-precision row format exists so storage tiers can trade
// accuracy headroom for bandwidth and capacity: int8, a per-row asymmetric
// affine code. Each row stores a float32 scale, an int32 zero-point and one
// uint8 per element; dequantization is v = float32(int32(q)-zero) * scale.
// With scale = (max-min)/255 the per-element error is bounded by scale/2
// (plus one float32 rounding of the product). Constant rows are represented
// exactly (scale = c, q = 1, zero = 0).
//
// The fused kernels below follow the same discipline as the fp32 kernels
// in this package: 8-wide unrolled with a scalar tail, and lane j of the
// destination sees exactly the FP32 operation sequence of the scalar
// reference. Dequantization is a single-rounded per-lane expression — the
// same expression DecodeI8 uses — so accumulating from a quantized row
// directly (AddI8 et al.) is bit-identical to first decoding the row to
// float32 and then running the fp32 kernel on it.
// That invariant is what lets a hot-row cache hold dequantized fp32 rows
// while misses reduce straight from quantized storage without the two
// paths ever disagreeing.
package kernels

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Precision selects a row storage format.
type Precision uint8

const (
	// FP32 is the native float32 row format (no codec).
	FP32 Precision = iota
	// INT8 stores rows as per-row affine-quantized uint8 (1 byte/element
	// plus an 8-byte scale/zero-point header).
	INT8
)

// I8RowOverhead is the per-row header of the INT8 format: a float32 scale
// followed by an int32 zero-point, both little-endian.
const I8RowOverhead = 8

func (p Precision) String() string {
	switch p {
	case FP32:
		return "fp32"
	case INT8:
		return "int8"
	default:
		return fmt.Sprintf("precision(%d)", uint8(p))
	}
}

// ParsePrecision parses "fp32" or "int8".
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "fp32", "float32", "f32", "":
		return FP32, nil
	case "int8", "i8", "q8":
		return INT8, nil
	default:
		return FP32, fmt.Errorf("kernels: unknown precision %q (want fp32 or int8)", s)
	}
}

// RowBytes is the serialized size of one vecLen-element row.
func (p Precision) RowBytes(vecLen int) int {
	switch p {
	case INT8:
		return vecLen + I8RowOverhead
	default:
		return 4 * vecLen
	}
}

// Ratio is the compression ratio versus fp32 rows of the same vecLen
// (>= 1; exactly 1 for FP32).
func (p Precision) Ratio(vecLen int) float64 {
	return float64(4*vecLen) / float64(p.RowBytes(vecLen))
}

// ---- int8 codec ----

// QuantizeI8 encodes src into q (len(q) >= len(src)) with a per-row
// asymmetric affine code: the row range is widened to include zero (so
// the zero-point is always an exact code in [0,255] and |q-zero| <= 255
// keeps the dequantizing int-to-float conversion exact), then
// scale = (max-min)/255, zero-point = round(-min/scale),
// q[i] = clamp(round(src[i]/scale)+zero, 0, 255).
// Quantization runs in float64 so the per-element reconstruction error is
// bounded by scale/2 (plus a 2^-13*scale grid-shift slack from rounding
// scale itself, plus one float32 rounding of the dequantized product).
// Constant rows (max == min) are represented exactly with scale = c,
// zero = 0, q = 1 (q = 0 for all-zero rows).
func QuantizeI8(q []uint8, src []float32) (scale float32, zero int32) {
	if len(src) == 0 {
		return 1, 0
	}
	q = q[:len(src)]
	lo, hi := src[0], src[0]
	for _, v := range src[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo == hi {
		if lo == 0 {
			for i := range q {
				q[i] = 0
			}
			return 1, 0
		}
		for i := range q {
			q[i] = 1
		}
		return lo, 0 // dequant: (1-0)*lo == lo exactly
	}
	if lo > 0 {
		lo = 0
	}
	if hi < 0 {
		hi = 0
	}
	scale = (hi - lo) / 255
	if scale == 0 {
		// Subnormal-tiny span: (hi-lo)/255 underflowed. Encode as the
		// constant lo (error < hi-lo < 2^-141).
		for i := range q {
			q[i] = 1
		}
		return lo, 0
	}
	zero = int32(math.RoundToEven(float64(-lo) / float64(scale)))
	if zero < 0 {
		zero = 0
	} else if zero > 255 {
		zero = 255
	}
	inv := 1 / float64(scale)
	for i, v := range src {
		t := int32(math.RoundToEven(float64(v)*inv)) + zero
		if t < 0 {
			t = 0
		} else if t > 255 {
			t = 255
		}
		q[i] = uint8(t)
	}
	return scale, zero
}

// DecodeI8 dequantizes q into dst (len(q) >= len(dst)):
// dst[i] = float32(int32(q[i])-zero) * scale. The int-to-float conversion
// is exact (|q-zero| <= 510 < 2^24), so the only rounding is the final
// product — the same single-rounded expression every fused kernel uses.
func DecodeI8(dst []float32, q []uint8, scale float32, zero int32) {
	n := len(dst)
	q = q[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		d := dst[i : i+8 : i+8]
		s := q[i : i+8 : i+8]
		d[0] = float32(int32(s[0])-zero) * scale
		d[1] = float32(int32(s[1])-zero) * scale
		d[2] = float32(int32(s[2])-zero) * scale
		d[3] = float32(int32(s[3])-zero) * scale
		d[4] = float32(int32(s[4])-zero) * scale
		d[5] = float32(int32(s[5])-zero) * scale
		d[6] = float32(int32(s[6])-zero) * scale
		d[7] = float32(int32(s[7])-zero) * scale
	}
	for ; i < n; i++ {
		dst[i] = float32(int32(q[i])-zero) * scale
	}
}

// AddI8 accumulates a quantized row into dst: dst[i] += dequant(q[i]).
// Bit-identical to DecodeI8 followed by Add. The explicit float32
// conversion rounds the product before the add, so targets that fuse
// x*y+z into one instruction (arm64) cannot skip that rounding.
func AddI8(dst []float32, q []uint8, scale float32, zero int32) {
	n := len(dst)
	q = q[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		d := dst[i : i+8 : i+8]
		s := q[i : i+8 : i+8]
		d[0] += float32(float32(int32(s[0])-zero) * scale)
		d[1] += float32(float32(int32(s[1])-zero) * scale)
		d[2] += float32(float32(int32(s[2])-zero) * scale)
		d[3] += float32(float32(int32(s[3])-zero) * scale)
		d[4] += float32(float32(int32(s[4])-zero) * scale)
		d[5] += float32(float32(int32(s[5])-zero) * scale)
		d[6] += float32(float32(int32(s[6])-zero) * scale)
		d[7] += float32(float32(int32(s[7])-zero) * scale)
	}
	for ; i < n; i++ {
		dst[i] += float32(float32(int32(q[i])-zero) * scale)
	}
}

// AxpyI8 accumulates a scaled quantized row: dst[i] += w*dequant(q[i]).
// The dequantized lane is rounded to float32 before the weight multiply
// (v := dequant; dst += w*v), and the product before the add, matching
// Axpy on the decoded row exactly — w is never folded into scale.
func AxpyI8(dst []float32, q []uint8, w, scale float32, zero int32) {
	n := len(dst)
	q = q[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		d := dst[i : i+8 : i+8]
		s := q[i : i+8 : i+8]
		d[0] += float32(w * (float32(int32(s[0])-zero) * scale))
		d[1] += float32(w * (float32(int32(s[1])-zero) * scale))
		d[2] += float32(w * (float32(int32(s[2])-zero) * scale))
		d[3] += float32(w * (float32(int32(s[3])-zero) * scale))
		d[4] += float32(w * (float32(int32(s[4])-zero) * scale))
		d[5] += float32(w * (float32(int32(s[5])-zero) * scale))
		d[6] += float32(w * (float32(int32(s[6])-zero) * scale))
		d[7] += float32(w * (float32(int32(s[7])-zero) * scale))
	}
	for ; i < n; i++ {
		dst[i] += float32(w * (float32(int32(q[i])-zero) * scale))
	}
}

// MaxI8 folds a quantized row into dst under max on the dequantized
// values, with the scalar reference's comparison semantics.
func MaxI8(dst []float32, q []uint8, scale float32, zero int32) {
	n := len(dst)
	q = q[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		d := dst[i : i+8 : i+8]
		s := q[i : i+8 : i+8]
		if v := float32(int32(s[0])-zero) * scale; v > d[0] {
			d[0] = v
		}
		if v := float32(int32(s[1])-zero) * scale; v > d[1] {
			d[1] = v
		}
		if v := float32(int32(s[2])-zero) * scale; v > d[2] {
			d[2] = v
		}
		if v := float32(int32(s[3])-zero) * scale; v > d[3] {
			d[3] = v
		}
		if v := float32(int32(s[4])-zero) * scale; v > d[4] {
			d[4] = v
		}
		if v := float32(int32(s[5])-zero) * scale; v > d[5] {
			d[5] = v
		}
		if v := float32(int32(s[6])-zero) * scale; v > d[6] {
			d[6] = v
		}
		if v := float32(int32(s[7])-zero) * scale; v > d[7] {
			d[7] = v
		}
	}
	for ; i < n; i++ {
		if v := float32(int32(q[i])-zero) * scale; v > dst[i] {
			dst[i] = v
		}
	}
}

// ---- serialized row forms (the cold-tier page layout) ----

// EncodeRow serializes src into dst (len(dst) >= p.RowBytes(len(src)))
// in p's little-endian row format and returns the bytes written. FP32 is
// the raw float32 bit pattern; INT8 is the 8-byte scale/zero header
// followed by one byte per element.
func EncodeRow(p Precision, dst []byte, src []float32) int {
	switch p {
	case INT8:
		scale, zero := QuantizeI8(dst[I8RowOverhead:I8RowOverhead+len(src)], src)
		binary.LittleEndian.PutUint32(dst[0:], math.Float32bits(scale))
		binary.LittleEndian.PutUint32(dst[4:], uint32(zero))
		return I8RowOverhead + len(src)
	default:
		for i, v := range src {
			binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
		}
		return 4 * len(src)
	}
}

// DecodeRow deserializes one row encoded by EncodeRow into dst.
func DecodeRow(p Precision, dst []float32, row []byte) {
	switch p {
	case INT8:
		scale := math.Float32frombits(binary.LittleEndian.Uint32(row[0:]))
		zero := int32(binary.LittleEndian.Uint32(row[4:]))
		DecodeI8(dst, row[I8RowOverhead:I8RowOverhead+len(dst)], scale, zero)
	default:
		for i := range dst {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(row[4*i:]))
		}
	}
}
