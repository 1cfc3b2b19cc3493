package kernels

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

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
// subnormals and values near 2^16, and every length from 0 to 67 runs
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
			dec8 := make([]float32, n)
			DecodeI8(dec8, q8, scale, zero)

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
		}
	}
}

func TestEncodeDecodeRow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, p := range []Precision{FP32, INT8} {
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
			// FP32 rows round-trip bit for bit and re-encode to the same
			// bytes; int8 re-derives its scale from the decoded span, so
			// neither holds for it.
			if p == FP32 {
				buf2 := make([]byte, p.RowBytes(n))
				EncodeRow(p, buf2, dec)
				for i := range buf {
					if buf[i] != buf2[i] {
						t.Fatalf("%v n=%d: re-encode differs at byte %d", p, n, i)
					}
				}
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
	}{{"fp32", FP32}, {"", FP32}, {"int8", INT8}, {"i8", INT8}} {
		got, err := ParsePrecision(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParsePrecision(%q) = %v, %v", c.in, got, err)
		}
	}
	// Rows are stored as fp32 or int8 only; a half-precision name is an
	// error that names both formats.
	for _, in := range []string{"fp16", "half", "bf16"} {
		_, err := ParsePrecision(in)
		if err == nil || !strings.Contains(err.Error(), "fp32") || !strings.Contains(err.Error(), "int8") {
			t.Errorf("ParsePrecision(%q) error = %v, want one naming fp32 and int8", in, err)
		}
	}
	if FP32.RowBytes(64) != 256 || INT8.RowBytes(64) != 72 {
		t.Errorf("RowBytes: %d %d", FP32.RowBytes(64), INT8.RowBytes(64))
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
