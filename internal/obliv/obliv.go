// Package obliv provides data-oblivious (branch-free, constant-time)
// building blocks used inside the trusted FEDORA controller.
//
// The FEDORA paper (Sec 4.1, 5.1) requires that all controller logic whose
// control flow or memory addresses could depend on secret user data be
// written in a constant-time, data-independent style, mirroring the
// authors' "best-effort constant-time" C++ prototype. This package is the
// single place where such primitives live, so the rest of the code base
// can state its intent by calling, e.g., obliv.Select64 rather than using
// an if-statement on a secret.
//
// Conventions:
//   - A "choice" is a uint64 that is exactly 0 or 1. Helpers that produce
//     choices (Eq64, Lt64, ...) guarantee this; helpers that consume them
//     (Select64, CondCopy, ...) require it.
//   - Nothing in this package branches on, or indexes memory by, any of
//     its secret arguments. Loop bounds depend only on public lengths.
//
// Paper mapping: the Sec 4.2 oblivious union (the O(K·log²K) sorting-
// network union every round runs, and the Θ(K²) linear scan the paper
// prototypes, kept as its reference and cost model) is the main consumer;
// the element-wise primitives implement the Sec 4.1/5.1 constant-time
// discipline they build on.
package obliv

// mask returns an all-ones word when choice==1 and zero when choice==0.
func mask(choice uint64) uint64 {
	return -choice
}

// Select64 returns a if choice==1 and b if choice==0, without branching.
func Select64(choice, a, b uint64) uint64 {
	m := mask(choice)
	return (a & m) | (b &^ m)
}

// SelectInt returns a if choice==1 and b if choice==0, without branching.
func SelectInt(choice uint64, a, b int) int {
	return int(Select64(choice, uint64(a), uint64(b)))
}

// Eq64 returns 1 if a == b and 0 otherwise, without branching.
func Eq64(a, b uint64) uint64 {
	x := a ^ b
	// x == 0  <=>  both x and -x have the top bit clear.
	return 1 ^ ((x | -x) >> 63)
}

// Neq64 returns 1 if a != b and 0 otherwise.
func Neq64(a, b uint64) uint64 {
	return 1 ^ Eq64(a, b)
}

// Lt64 returns 1 if a < b (unsigned) and 0 otherwise, without branching.
func Lt64(a, b uint64) uint64 {
	// Standard constant-time unsigned comparison:
	// the borrow out of a-b is the sign of (a^((a^b)|((a-b)^b))).
	return ((a ^ ((a ^ b) | ((a - b) ^ b))) >> 63)
}

// Ge64 returns 1 if a >= b (unsigned) and 0 otherwise.
func Ge64(a, b uint64) uint64 {
	return 1 ^ Lt64(a, b)
}

// And combines two choices without branching.
func And(a, b uint64) uint64 { return a & b }

// Or combines two choices without branching.
func Or(a, b uint64) uint64 { return a | b }

// Not negates a choice without branching.
func Not(a uint64) uint64 { return a ^ 1 }

// CondAssign64 sets *dst = src when choice==1 and leaves *dst unchanged
// when choice==0.
func CondAssign64(choice uint64, dst *uint64, src uint64) {
	*dst = Select64(choice, src, *dst)
}

// CondSwap64 exchanges *a and *b when choice==1.
func CondSwap64(choice uint64, a, b *uint64) {
	m := mask(choice)
	d := (*a ^ *b) & m
	*a ^= d
	*b ^= d
}

// CondCopy copies src into dst when choice==1 and performs a same-shaped
// pass over both slices (reading src, rewriting dst with its own value)
// when choice==0. len(dst) must equal len(src); lengths are public.
func CondCopy(choice uint64, dst, src []byte) {
	if len(dst) != len(src) {
		panic("obliv: CondCopy length mismatch")
	}
	m := byte(mask(choice))
	for i := range dst {
		dst[i] = (src[i] & m) | (dst[i] &^ m)
	}
}

// CondSwapBytes exchanges the contents of a and b when choice==1,
// touching every byte of both slices regardless of choice.
func CondSwapBytes(choice uint64, a, b []byte) {
	if len(a) != len(b) {
		panic("obliv: CondSwapBytes length mismatch")
	}
	m := byte(mask(choice))
	for i := range a {
		d := (a[i] ^ b[i]) & m
		a[i] ^= d
		b[i] ^= d
	}
}

// CondCopy64s copies src into dst word-wise when choice==1; same-shaped
// pass otherwise.
func CondCopy64s(choice uint64, dst, src []uint64) {
	if len(dst) != len(src) {
		panic("obliv: CondCopy64s length mismatch")
	}
	m := mask(choice)
	for i := range dst {
		dst[i] = (src[i] & m) | (dst[i] &^ m)
	}
}

// ScanGather reads arr[idx] by linearly scanning the whole slice,
// accumulating the match without branching. The memory access pattern is
// independent of idx: every element is read exactly once in order.
func ScanGather(arr []uint64, idx uint64) uint64 {
	var out uint64
	for i := range arr {
		hit := Eq64(uint64(i), idx)
		out = Select64(hit, arr[i], out)
	}
	return out
}

// ScanScatter writes val into arr[idx] by linearly scanning the whole
// slice, rewriting every element (with itself or with val) so that the
// write pattern is independent of idx.
func ScanScatter(arr []uint64, idx, val uint64) {
	for i := range arr {
		hit := Eq64(uint64(i), idx)
		arr[i] = Select64(hit, val, arr[i])
	}
}

// ScanGatherBytes copies the blockSize-byte record at index idx of the
// packed array arr (len(arr) = n*blockSize) into dst using a full linear
// scan. dst must have length blockSize.
func ScanGatherBytes(arr []byte, blockSize int, idx uint64, dst []byte) {
	if len(dst) != blockSize {
		panic("obliv: ScanGatherBytes dst size mismatch")
	}
	n := len(arr) / blockSize
	for i := 0; i < n; i++ {
		hit := Eq64(uint64(i), idx)
		CondCopy(hit, dst, arr[i*blockSize:(i+1)*blockSize])
	}
}

// ScanScatterBytes writes src over the record at index idx of the packed
// array arr using a full linear scan; every record is rewritten.
func ScanScatterBytes(arr []byte, blockSize int, idx uint64, src []byte) {
	if len(src) != blockSize {
		panic("obliv: ScanScatterBytes src size mismatch")
	}
	n := len(arr) / blockSize
	for i := 0; i < n; i++ {
		hit := Eq64(uint64(i), idx)
		CondCopy(hit, arr[i*blockSize:(i+1)*blockSize], src)
	}
}
