// Package kernels holds the fused vector primitives of the functional
// embedding data plane: gather-scale-accumulate loops unrolled 8 wide with
// a scalar tail, written against reused destination buffers so the serving
// hot path performs zero data-plane allocations.
//
// Exact-FP equivalence guarantee: every kernel is elementwise — lane j of
// the destination sees exactly the same sequence of FP32 operations, in
// the same order, as the textbook scalar loop `for j { dst[j] op= src[j] }`.
// Unrolling spreads independent lanes across iterations of the loop body
// (instruction-level parallelism) but never reassociates or reorders the
// per-lane accumulation, so results are bit-identical to the scalar
// reference, not merely close. The kernel differential tests in
// internal/embedding enforce this for every reduce kind.
package kernels

// Zero clears dst.
func Zero(dst []float32) {
	for i := range dst {
		dst[i] = 0
	}
}

// Add accumulates src into dst elementwise: dst[i] += src[i].
// len(src) must be >= len(dst); extra src elements are ignored.
func Add(dst, src []float32) {
	n := len(dst)
	src = src[:n] // one bounds check; eliminates per-access checks below
	i := 0
	for ; i+8 <= n; i += 8 {
		d := dst[i : i+8 : i+8]
		s := src[i : i+8 : i+8]
		d[0] += s[0]
		d[1] += s[1]
		d[2] += s[2]
		d[3] += s[3]
		d[4] += s[4]
		d[5] += s[5]
		d[6] += s[6]
		d[7] += s[7]
	}
	for ; i < n; i++ {
		dst[i] += src[i]
	}
}

// Axpy accumulates a scaled vector into dst elementwise: dst[i] += w*src[i].
// Each product is rounded to float32 before the add, so a target that
// would fuse the two into one multiply-add (arm64) gets amd64's bits.
func Axpy(dst, src []float32, w float32) {
	n := len(dst)
	src = src[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		d := dst[i : i+8 : i+8]
		s := src[i : i+8 : i+8]
		d[0] += float32(w * s[0])
		d[1] += float32(w * s[1])
		d[2] += float32(w * s[2])
		d[3] += float32(w * s[3])
		d[4] += float32(w * s[4])
		d[5] += float32(w * s[5])
		d[6] += float32(w * s[6])
		d[7] += float32(w * s[7])
	}
	for ; i < n; i++ {
		dst[i] += float32(w * src[i])
	}
}

// Max folds src into dst elementwise under max, with the exact comparison
// semantics of the scalar reference (`if src[i] > dst[i]`), so NaN and
// signed-zero handling are bit-identical.
func Max(dst, src []float32) {
	n := len(dst)
	src = src[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		d := dst[i : i+8 : i+8]
		s := src[i : i+8 : i+8]
		if s[0] > d[0] {
			d[0] = s[0]
		}
		if s[1] > d[1] {
			d[1] = s[1]
		}
		if s[2] > d[2] {
			d[2] = s[2]
		}
		if s[3] > d[3] {
			d[3] = s[3]
		}
		if s[4] > d[4] {
			d[4] = s[4]
		}
		if s[5] > d[5] {
			d[5] = s[5]
		}
		if s[6] > d[6] {
			d[6] = s[6]
		}
		if s[7] > d[7] {
			d[7] = s[7]
		}
	}
	for ; i < n; i++ {
		if src[i] > dst[i] {
			dst[i] = src[i]
		}
	}
}
