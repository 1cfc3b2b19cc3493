package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// f16RefToF32 is the textbook branchy reference decode used to validate
// the bit-trick F16ToF32 over the whole 16-bit domain.
func f16RefToF32(h uint16) float32 {
	sign := float64(1)
	if h&0x8000 != 0 {
		sign = -1
	}
	exp := int(h >> 10 & 0x1f)
	man := int(h & 0x3ff)
	switch exp {
	case 0:
		return float32(sign * float64(man) * math.Pow(2, -24))
	case 31:
		if man != 0 {
			return float32(math.NaN())
		}
		return float32(sign * math.Inf(1))
	default:
		return float32(sign * (1 + float64(man)/1024) * math.Pow(2, float64(exp-15)))
	}
}

func TestF16ToF32Exhaustive(t *testing.T) {
	for h := 0; h < 1<<16; h++ {
		got := F16ToF32(uint16(h))
		want := f16RefToF32(uint16(h))
		if math.IsNaN(float64(want)) {
			if !math.IsNaN(float64(got)) {
				t.Fatalf("h=%#04x: got %v, want NaN", h, got)
			}
			continue
		}
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("h=%#04x: got %x (%v), want %x (%v)",
				h, math.Float32bits(got), got, math.Float32bits(want), want)
		}
	}
}

func TestF32ToF16RoundTrip(t *testing.T) {
	// Every binary16 value is exactly representable in binary32, so
	// encode(decode(h)) must reproduce h (modulo NaN payloads).
	for h := 0; h < 1<<16; h++ {
		f := F16ToF32(uint16(h))
		if math.IsNaN(float64(f)) {
			if back := F32ToF16(f); back&0x7c00 != 0x7c00 || back&0x3ff == 0 {
				t.Fatalf("h=%#04x: NaN did not round-trip to NaN (%#04x)", h, back)
			}
			continue
		}
		if back := F32ToF16(f); back != uint16(h) {
			t.Fatalf("h=%#04x -> %v -> %#04x", h, f, back)
		}
	}
}

func TestF32ToF16Rounding(t *testing.T) {
	cases := []struct {
		in   float32
		want uint16
	}{
		{0, 0x0000},
		{float32(math.Copysign(0, -1)), 0x8000},
		{1, 0x3c00},
		{-2, 0xc000},
		{65504, 0x7bff},     // largest finite binary16
		{65520, 0x7c00},     // halfway to the next step: RNE carries to Inf
		{65519.996, 0x7bff}, // just below halfway
		{65536, 0x7c00},     // above the range
		{float32(math.Inf(1)), 0x7c00},
		{float32(math.Inf(-1)), 0xfc00},
		{5.9604645e-8, 0x0001},  // smallest binary16 subnormal
		{2.9802322e-8, 0x0000},  // half of it: RNE ties to even (zero)
		{2.9802326e-8, 0x0001},  // just above the tie: rounds up
		{6.1035156e-5, 0x0400},  // smallest binary16 normal (2^-14)
		{6.0975552e-5, 0x03ff},  // largest binary16 subnormal
		{1.0009765625, 0x3c01},  // 1 + 2^-10
		{1.00048828125, 0x3c00}, // 1 + 2^-11: tie, rounds to even mantissa
		{1.0004884, 0x3c01},     // one float32 ULP above the tie
	}
	for _, c := range cases {
		if got := F32ToF16(c.in); got != c.want {
			t.Errorf("F32ToF16(%v) = %#04x, want %#04x", c.in, got, c.want)
		}
	}
	if got := F32ToF16(float32(math.NaN())); got&0x7c00 != 0x7c00 || got&0x3ff == 0 {
		t.Errorf("F32ToF16(NaN) = %#04x, not a NaN", got)
	}
}

func TestF32ToF16RelError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		v := (rng.Float32()*2 - 1) * float32(math.Pow(2, float64(rng.Intn(20)-10)))
		r := F16ToF32(F32ToF16(v))
		err := math.Abs(float64(r) - float64(v))
		bound := math.Pow(2, -11)*math.Abs(float64(v)) + math.Pow(2, -25)
		if err > bound {
			t.Fatalf("v=%v round-trips to %v, err %g > bound %g", v, r, err, bound)
		}
	}
}

func TestQuantizeI8Bound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	q := make([]uint8, 128)
	dec := make([]float32, 128)
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(128)
		src := make([]float32, n)
		span := float32(math.Pow(2, float64(rng.Intn(16)-8)))
		for i := range src {
			src[i] = (rng.Float32()*2 - 1) * span
		}
		scale, zero := QuantizeI8(q, src)
		DecodeI8(dec[:n], q, scale, zero)
		absMax := 0.0
		for _, v := range src {
			if a := math.Abs(float64(v)); a > absMax {
				absMax = a
			}
		}
		// Derived bound: scale/2 from rounding to the grid, a 2^-13*scale
		// slack for the float32 rounding of scale itself shifting the grid,
		// and one float32 rounding of the dequantized product.
		bound := math.Abs(float64(scale))*(0.5+math.Pow(2, -13)) + math.Pow(2, -24)*absMax
		for i := 0; i < n; i++ {
			if err := math.Abs(float64(dec[i]) - float64(src[i])); err > bound {
				t.Fatalf("trial %d elem %d: src %v dec %v err %g > bound %g (scale %v zero %d)",
					trial, i, src[i], dec[i], err, bound, scale, zero)
			}
		}
	}
}

func TestQuantizeI8ConstantRowExact(t *testing.T) {
	for _, c := range []float32{0, 1, -1, 0.37, -123456, 1e-20} {
		src := []float32{c, c, c}
		q := make([]uint8, 3)
		scale, zero := QuantizeI8(q, src)
		dec := make([]float32, 3)
		DecodeI8(dec, q, scale, zero)
		for i, v := range dec {
			if math.Float32bits(v) != math.Float32bits(c) {
				t.Fatalf("constant %v decoded to %v at %d", c, v, i)
			}
		}
	}
}

// specials salts random test rows with the values most likely to expose
// a lane whose operation sequence drifts from the fp32 reference.
var specials = []float32{
	0, float32(math.Copysign(0, -1)), 1, -1,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.Float32frombits(1),          // smallest subnormal
	math.Float32frombits(0x7f7fffff), // largest finite
	65504, -65504, 65520, 6.1e-5, -6.1e-5,
}

func saltedRow(rng *rand.Rand, n int) []float32 {
	row := make([]float32, n)
	for i := range row {
		if rng.Intn(4) == 0 {
			row[i] = specials[rng.Intn(len(specials))]
		} else {
			row[i] = rng.Float32()*200 - 100
		}
	}
	return row
}

func requireBits(t *testing.T, name string, n int, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			// NaN payload/sign propagation through *arithmetic* is pinned
			// by neither IEEE 754 nor Go: when both addends are NaN, which
			// one survives depends on operand order, and the compiler may
			// commute a float add (codegen differs under -race, for
			// instance). Any-NaN vs any-NaN is therefore equal here;
			// NaN vs number, and every non-NaN bit pattern (signed zeros,
			// infs, subnormals), must still match exactly.
			g, w := got[i], want[i]
			if g != g && w != w {
				continue
			}
			t.Fatalf("%s n=%d lane %d: got %08x want %08x",
				name, n, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestFusedBitIdenticalToDecode asserts the fused-kernel invariant: the
// fused accumulate from quantized storage must produce exactly the bits
// of decoding the row to float32 first and running the fp32 kernel. Rows
// and accumulators are salted with NaN, signed zeros, infinities,
// subnormals and the fp16 extremes, and every length from 0 to 67 runs
// the 8-wide body and each tail length several times.
func TestFusedBitIdenticalToDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for n := 0; n <= 67; n++ {
		for trial := 0; trial < 8; trial++ {
			src := saltedRow(rng, n)
			acc := saltedRow(rng, n)
			w := rng.Float32()*4 - 2

			q8 := make([]uint8, n)
			scale, zero := QuantizeI8(q8, src)
			q16 := make([]uint16, n)
			QuantizeF16(q16, src)
			dec8 := make([]float32, n)
			DecodeI8(dec8, q8, scale, zero)
			dec16 := make([]float32, n)
			DecodeF16(dec16, q16)

			lane8 := make([]float32, n)
			for i, c := range q8 {
				lane8[i] = float32(int32(c)-zero) * scale
			}
			requireBits(t, "DecodeI8", n, dec8, lane8)

			check := func(name string, fused, ref func(dst []float32)) {
				t.Helper()
				got := append([]float32(nil), acc...)
				want := append([]float32(nil), acc...)
				fused(got)
				ref(want)
				requireBits(t, name, n, got, want)
			}
			check("AddI8",
				func(d []float32) { AddI8(d, q8, scale, zero) },
				func(d []float32) { Add(d, dec8) })
			check("AxpyI8",
				func(d []float32) { AxpyI8(d, q8, w, scale, zero) },
				func(d []float32) { Axpy(d, dec8, w) })
			check("MaxI8",
				func(d []float32) { MaxI8(d, q8, scale, zero) },
				func(d []float32) { Max(d, dec8) })
			check("AddF16",
				func(d []float32) { AddF16(d, q16) },
				func(d []float32) { Add(d, dec16) })
			check("AxpyF16",
				func(d []float32) { AxpyF16(d, q16, w) },
				func(d []float32) { Axpy(d, dec16, w) })
			check("MaxF16",
				func(d []float32) { MaxF16(d, q16) },
				func(d []float32) { Max(d, dec16) })
		}
	}
}

// TestDecodeF16Exhaustive pins the row decode against the exhaustively
// verified scalar F16ToF32 over every binary16 bit pattern (NaNs compare
// by bits too, so quiet-NaN payloads must survive the row path).
func TestDecodeF16Exhaustive(t *testing.T) {
	q := make([]uint16, 1<<16)
	for i := range q {
		q[i] = uint16(i)
	}
	dst := make([]float32, len(q))
	DecodeF16(dst, q)
	for i, h := range q {
		want := F16ToF32(h)
		if math.Float32bits(dst[i]) != math.Float32bits(want) {
			t.Fatalf("h=%04x: row decode %08x, scalar %08x",
				h, math.Float32bits(dst[i]), math.Float32bits(want))
		}
	}
}

func TestEncodeDecodeRow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, p := range []Precision{FP32, FP16, INT8} {
		for _, n := range []int{1, 7, 64} {
			src := make([]float32, n)
			for i := range src {
				src[i] = rng.Float32()*2 - 1
			}
			buf := make([]byte, p.RowBytes(n))
			if w := EncodeRow(p, buf, src); w != len(buf) {
				t.Fatalf("%v n=%d: EncodeRow wrote %d, want %d", p, n, w, len(buf))
			}
			dec := make([]float32, n)
			DecodeRow(p, dec, buf)
			// Re-encoding the decoded row must be byte-identical for FP32
			// (raw bits) and idempotent for the quantized formats
			// (decode-encode of an on-grid row reproduces the code).
			buf2 := make([]byte, p.RowBytes(n))
			EncodeRow(p, buf2, dec)
			if p != INT8 { // int8 re-derives scale from the decoded span
				for i := range buf {
					if buf[i] != buf2[i] {
						t.Fatalf("%v n=%d: re-encode differs at byte %d", p, n, i)
					}
				}
			}
			if p == FP32 {
				for i := range src {
					if math.Float32bits(dec[i]) != math.Float32bits(src[i]) {
						t.Fatalf("fp32 n=%d: lane %d not bit-identical", n, i)
					}
				}
			}
		}
	}
}

func TestParsePrecision(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Precision
	}{{"fp32", FP32}, {"", FP32}, {"fp16", FP16}, {"half", FP16}, {"int8", INT8}, {"i8", INT8}} {
		got, err := ParsePrecision(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParsePrecision(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParsePrecision("bf16"); err == nil {
		t.Error("ParsePrecision(bf16) should fail")
	}
	if FP32.RowBytes(64) != 256 || FP16.RowBytes(64) != 128 || INT8.RowBytes(64) != 72 {
		t.Errorf("RowBytes: %d %d %d", FP32.RowBytes(64), FP16.RowBytes(64), INT8.RowBytes(64))
	}
	if r := INT8.Ratio(64); r < 3.5 || r > 3.6 {
		t.Errorf("INT8.Ratio(64) = %v", r)
	}
}

func BenchmarkAxpyI8_64(b *testing.B) {
	src := make([]float32, 64)
	for i := range src {
		src[i] = float32(i)/64 - 0.5
	}
	q := make([]uint8, 64)
	scale, zero := QuantizeI8(q, src)
	dst := make([]float32, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		AxpyI8(dst, q, 0.5, scale, zero)
	}
}

func BenchmarkAxpyF16_64(b *testing.B) {
	src := make([]float32, 64)
	for i := range src {
		src[i] = float32(i)/64 - 0.5
	}
	q := make([]uint16, 64)
	QuantizeF16(q, src)
	dst := make([]float32, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		AxpyF16(dst, q, 0.5)
	}
}
