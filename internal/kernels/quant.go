// Quantized row codecs and fused dequantize-scale-accumulate kernels.
//
// Two reduced-precision row formats exist so cold storage tiers can trade
// accuracy headroom for bandwidth and capacity:
//
//   - fp16: IEEE 754 binary16, round-to-nearest-even. Conversion back to
//     float32 is exact (every binary16 value is a binary32 value), so the
//     fp16 path's error is purely representational: per element
//     |v16 - v| <= 2^-11 * |v| for normals, with a 2^-25 absolute floor in
//     the subnormal range.
//   - int8: per-row asymmetric affine code. Each row stores a float32
//     scale, an int32 zero-point and one uint8 per element;
//     dequantization is v = float32(int32(q)-zero) * scale. With
//     scale = (max-min)/255 the per-element error is bounded by scale/2
//     (plus one float32 rounding of the product). Constant rows are
//     represented exactly (scale = c, q = 1, zero = 0).
//
// The fused kernels below follow the same discipline as the fp32 kernels
// in this package: 8-wide unrolled with a scalar tail, and lane j of the
// destination sees exactly the FP32 operation sequence of the scalar
// reference. Dequantization is a single-rounded per-lane expression — the
// same expression DecodeI8/DecodeF16 use — so accumulating from a
// quantized row directly (AddI8 et al.) is bit-identical to first
// decoding the row to float32 and then running the fp32 kernel on it.
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
	// FP16 stores rows as IEEE binary16 (2 bytes/element).
	FP16
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
	case FP16:
		return "fp16"
	case INT8:
		return "int8"
	default:
		return fmt.Sprintf("precision(%d)", uint8(p))
	}
}

// ParsePrecision parses "fp32", "fp16" or "int8".
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "fp32", "float32", "f32", "":
		return FP32, nil
	case "fp16", "float16", "f16", "half":
		return FP16, nil
	case "int8", "i8", "q8":
		return INT8, nil
	default:
		return FP32, fmt.Errorf("kernels: unknown precision %q (want fp32, fp16 or int8)", s)
	}
}

// RowBytes is the serialized size of one vecLen-element row.
func (p Precision) RowBytes(vecLen int) int {
	switch p {
	case FP16:
		return 2 * vecLen
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

// ---- fp16 codec ----

// F32ToF16 converts f to IEEE binary16 with round-to-nearest-even.
// Values above the binary16 range round to +/-Inf; NaN stays NaN.
func F32ToF16(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b >> 16 & 0x8000)
	exp := int32(b>>23&0xff) - 127 + 15
	man := b & 0x7fffff
	switch {
	case exp >= 31:
		if int32(b>>23&0xff) == 0xff && man != 0 {
			return sign | 0x7e00 // NaN (quiet, payload dropped)
		}
		return sign | 0x7c00 // Inf / overflow
	case exp <= 0:
		if exp < -10 {
			return sign // underflow to signed zero
		}
		// Subnormal: shift the implicit-1 mantissa into place, RNE.
		man |= 0x800000
		shift := uint32(14 - exp) // exp in [-10,0] -> shift in [14,24]
		q := man >> shift
		rem := man & (1<<shift - 1)
		half := uint32(1) << (shift - 1)
		if rem > half || (rem == half && q&1 == 1) {
			q++
		}
		return sign | uint16(q)
	default:
		// Normal: 23 -> 10 mantissa bits, RNE; a mantissa carry bumps the
		// exponent (and can round the largest finites up to Inf).
		q := man >> 13
		rem := man & 0x1fff
		if rem > 0x1000 || (rem == 0x1000 && q&1 == 1) {
			q++
		}
		r := uint32(exp)<<10 + q
		if r >= 0x7c00 {
			return sign | 0x7c00
		}
		return sign | uint16(r)
	}
}

// f16Magic rescales the subnormal-half path of F16ToF32 (2^-112 bias
// correction done in float arithmetic, which renormalizes for free).
var f16Magic = math.Float32frombits(113 << 23)

// F16ToF32 converts an IEEE binary16 value to float32 (exact for every
// non-NaN value; signaling NaNs are quieted, as hardware half-to-single
// conversions such as x86 VCVTPH2PS do).
func F16ToF32(h uint16) float32 {
	const shiftedExp = 0x7c00 << 13
	o := uint32(h&0x7fff) << 13
	exp := o & shiftedExp
	o += (127 - 15) << 23
	switch exp {
	case shiftedExp: // Inf/NaN: adjust the exponent the rest of the way
		o += (128 - 16) << 23
		if o&0x7fffff != 0 {
			o |= 1 << 22 // quiet signaling NaNs
		}
	case 0: // zero/subnormal: renormalize via float subtraction
		o += 1 << 23
		o = math.Float32bits(math.Float32frombits(o) - f16Magic)
	}
	return math.Float32frombits(o | uint32(h&0x8000)<<16)
}

// QuantizeF16 encodes src elementwise into q (len(q) >= len(src)).
func QuantizeF16(q []uint16, src []float32) {
	q = q[:len(src)]
	for i, v := range src {
		q[i] = F32ToF16(v)
	}
}

// DecodeF16 decodes q elementwise into dst (len(q) >= len(dst)).
func DecodeF16(dst []float32, q []uint16) {
	n := len(dst)
	q = q[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		d := dst[i : i+8 : i+8]
		s := q[i : i+8 : i+8]
		d[0] = F16ToF32(s[0])
		d[1] = F16ToF32(s[1])
		d[2] = F16ToF32(s[2])
		d[3] = F16ToF32(s[3])
		d[4] = F16ToF32(s[4])
		d[5] = F16ToF32(s[5])
		d[6] = F16ToF32(s[6])
		d[7] = F16ToF32(s[7])
	}
	for ; i < n; i++ {
		dst[i] = F16ToF32(q[i])
	}
}

// AddF16 accumulates a binary16 row into dst: dst[i] += decode(q[i]).
// Bit-identical to DecodeF16 followed by Add.
func AddF16(dst []float32, q []uint16) {
	n := len(dst)
	q = q[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		d := dst[i : i+8 : i+8]
		s := q[i : i+8 : i+8]
		d[0] += F16ToF32(s[0])
		d[1] += F16ToF32(s[1])
		d[2] += F16ToF32(s[2])
		d[3] += F16ToF32(s[3])
		d[4] += F16ToF32(s[4])
		d[5] += F16ToF32(s[5])
		d[6] += F16ToF32(s[6])
		d[7] += F16ToF32(s[7])
	}
	for ; i < n; i++ {
		dst[i] += F16ToF32(q[i])
	}
}

// AxpyF16 accumulates a scaled binary16 row: dst[i] += w*decode(q[i]).
// The decode result is a float32 value and the product is rounded before
// the add (no fused multiply-add), so it matches Axpy on the decoded row.
func AxpyF16(dst []float32, q []uint16, w float32) {
	n := len(dst)
	q = q[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		d := dst[i : i+8 : i+8]
		s := q[i : i+8 : i+8]
		d[0] += float32(w * F16ToF32(s[0]))
		d[1] += float32(w * F16ToF32(s[1]))
		d[2] += float32(w * F16ToF32(s[2]))
		d[3] += float32(w * F16ToF32(s[3]))
		d[4] += float32(w * F16ToF32(s[4]))
		d[5] += float32(w * F16ToF32(s[5]))
		d[6] += float32(w * F16ToF32(s[6]))
		d[7] += float32(w * F16ToF32(s[7]))
	}
	for ; i < n; i++ {
		dst[i] += float32(w * F16ToF32(q[i]))
	}
}

// MaxF16 folds a binary16 row into dst under max, with the scalar
// reference's comparison semantics on the decoded values.
func MaxF16(dst []float32, q []uint16) {
	n := len(dst)
	q = q[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		d := dst[i : i+8 : i+8]
		s := q[i : i+8 : i+8]
		if v := F16ToF32(s[0]); v > d[0] {
			d[0] = v
		}
		if v := F16ToF32(s[1]); v > d[1] {
			d[1] = v
		}
		if v := F16ToF32(s[2]); v > d[2] {
			d[2] = v
		}
		if v := F16ToF32(s[3]); v > d[3] {
			d[3] = v
		}
		if v := F16ToF32(s[4]); v > d[4] {
			d[4] = v
		}
		if v := F16ToF32(s[5]); v > d[5] {
			d[5] = v
		}
		if v := F16ToF32(s[6]); v > d[6] {
			d[6] = v
		}
		if v := F16ToF32(s[7]); v > d[7] {
			d[7] = v
		}
	}
	for ; i < n; i++ {
		if v := F16ToF32(q[i]); v > dst[i] {
			dst[i] = v
		}
	}
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
// the raw float32 bit pattern; FP16 is packed binary16; INT8 is the
// 8-byte scale/zero header followed by one byte per element.
func EncodeRow(p Precision, dst []byte, src []float32) int {
	switch p {
	case FP16:
		for i, v := range src {
			binary.LittleEndian.PutUint16(dst[2*i:], F32ToF16(v))
		}
		return 2 * len(src)
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
	case FP16:
		for i := range dst {
			dst[i] = F16ToF32(binary.LittleEndian.Uint16(row[2*i:]))
		}
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
