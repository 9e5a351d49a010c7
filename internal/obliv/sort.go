package obliv

// Bitonic sort: an oblivious sorting network whose compare-exchange
// sequence depends only on the (public) input length. The union sorts
// requests by secret ids with it, and compacts the survivors, without
// revealing the permutation.
//
// The network is defined over power-of-two lengths; other lengths are
// padded with elements that sort last (compare-exchanges touching them
// are executed like any other), so the touched addresses remain a
// function of the length alone.

// KV is a sortable key/value pair. Sorting is by Key ascending, then by
// Val ascending among equal keys.
type KV struct {
	Key uint64
	Val uint64
}

// BitonicSortKV sorts kvs in place by (Key, Val) ascending using a
// bitonic network. The sequence of (i, j) compare-exchange index pairs
// depends only on len(kvs). A length that is not a power of two is sorted
// through a padded copy allocated per call; the union, which sorts every
// round, pads inside its own scratch instead (UnionScratch).
func BitonicSortKV(kvs []KV) {
	n := len(kvs)
	if n&(n-1) == 0 {
		bitonicSort(kvs, nil)
		return
	}
	pow2 := 1
	for pow2 < n {
		pow2 <<= 1
	}
	buf := make([]KV, pow2)
	copy(buf, kvs)
	for i := n; i < pow2; i++ {
		buf[i] = KV{Key: ^uint64(0), Val: ^uint64(0)} // sorts last
	}
	bitonicSort(buf, nil)
	copy(kvs, buf[:n])
}

// bitonicSort runs the network over buf, whose length is a power of two
// (or zero); trace, when non-nil, is told the index pair of every
// compare-exchange in order.
func bitonicSort(buf []KV, trace func(i, j int)) {
	n := len(buf)
	for size := 2; size <= n; size <<= 1 {
		for stride := size >> 1; stride > 0; stride >>= 1 {
			// Each block of 2·stride positions pairs its lower half with
			// its upper half and lies in one sorting direction (2·stride
			// divides size).
			for base := 0; base < n; base += 2 * stride {
				lo, hi := buf[base:base+stride], buf[base+stride:base+2*stride]
				if base&size != 0 { // a descending block
					lo, hi = hi, lo
				}
				for i := range lo {
					if trace != nil {
						trace(base+i, base+stride+i)
					}
					// Exchange when the element due to be the larger is
					// the smaller: (b.Key, b.Val) < (a.Key, a.Val).
					a, b := &lo[i], &hi[i]
					swap := Or(Lt64(b.Key, a.Key), And(Eq64(b.Key, a.Key), Lt64(b.Val, a.Val)))
					CondSwap64(swap, &a.Key, &b.Key)
					CondSwap64(swap, &a.Val, &b.Val)
				}
			}
		}
	}
}

// CompactIDs obliviously moves all real entries (!= InvalidID) of ids to
// the front, preserving their relative order, and returns the count of
// real entries. It is implemented by a stable bitonic sort on the key
// (isDummy, originalIndex).
func CompactIDs(ids []uint64) int {
	n := len(ids)
	kvs := make([]KV, n)
	for i, id := range ids {
		dummyBit := Eq64(id, InvalidID)
		// Key layout: [dummy bit | original index]; real entries sort
		// first and keep order.
		kvs[i] = KV{Key: dummyBit<<63 | uint64(i), Val: id}
	}
	BitonicSortKV(kvs)
	var count uint64
	for i := range kvs {
		ids[i] = kvs[i].Val
		count += Neq64(kvs[i].Val, InvalidID)
	}
	return int(count)
}
