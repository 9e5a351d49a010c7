package obliv

// This file implements the data-oblivious union of user requests from
// FEDORA step ① (Sec 4.2 of the paper): the controller receives K
// embedding-row requests from the selected clients and must compute the
// set of unique row IDs — and its size k_union — without leaking, through
// its memory access pattern, which requests were duplicates.
//
// Union is an O(K·log²K) sorting-network union whose output equals, slot
// for slot, that of the paper's Θ(K²) linear scan:
//
//  1. bitonic-sort (id, arrival index) lexicographically, so the requests
//     for one id are adjacent and the earliest of them comes first;
//  2. one linear pass marks the first element of every run of equal ids
//     (and no InvalidID) as kept and counts them;
//  3. bitonic-sort again by (dropped, arrival index): the kept ids move to
//     the front in first-seen order, InvalidID fills the rest.
//
// The two networks' compare-exchange sequences and the linear pass touch
// addresses that are a function of the public K alone, and every
// comparison and move is branch-free on the ids.
//
// UnionScan is the paper's algorithm itself. No round calls it: it is
// the Sec 4.2 reference, the oracle Union is tested against, and the
// algorithm UnionScanCost — what the controller charges its DRAM model —
// counts.

import "slices"

// InvalidID is the sentinel stored in unused union slots. Real row IDs
// must be < InvalidID. It doubles as the "dummy request" marker: inputs
// equal to InvalidID are processed like every other element but never
// inserted, which lets callers pad request lists to a public length.
const InvalidID = ^uint64(0)

// UnionResult is the output of the oblivious union: a K-sized slice whose
// first Size entries (a secret count) are the unique IDs in first-seen
// order and whose remaining entries are InvalidID.
type UnionResult struct {
	// IDs has length equal to the input K. Entries at positions >= Size
	// hold InvalidID. Consumers must take care to only reveal information
	// about IDs/Size through channels covered by the ε-FDP mechanism.
	IDs []uint64
	// Size is k_union, the number of unique real IDs.
	Size int
}

// Union computes the oblivious union of reqs. The access pattern depends
// only on len(reqs). The result is freshly allocated; a caller that
// unions every round keeps a UnionScratch instead.
func Union(reqs []uint64) UnionResult {
	var s UnionScratch
	return s.Union(reqs)
}

// UnionScratch holds the working arrays of Union so that a long-lived
// caller allocates them once (they grow to the largest K seen). The zero
// value is ready to use. Not safe for concurrent use.
type UnionScratch struct {
	kv  []KV     // the network's array, padded to a power of two
	ids []uint64 // the result

	// trace, when set by a test, sees every compare-exchange's index pair.
	trace func(i, j int)
}

// Union is the package-level Union over s's arrays: the result's IDs
// alias them and are valid until the next call.
func (s *UnionScratch) Union(reqs []uint64) UnionResult {
	k := len(reqs)
	n := 1
	for n < k {
		n <<= 1
	}
	s.kv = slices.Grow(s.kv[:0], n)[:n]
	s.ids = slices.Grow(s.ids[:0], k)[:k]
	kv := s.kv
	for i, r := range reqs {
		kv[i] = KV{Key: r, Val: uint64(i)}
	}
	// Padding sorts behind every request in both networks: the largest
	// key, and arrival indices past the last real one.
	for i := k; i < n; i++ {
		kv[i] = KV{Key: InvalidID, Val: uint64(i)}
	}
	bitonicSort(kv, s.trace)
	var size uint64
	prev := InvalidID
	for i := range kv {
		id := kv[i].Key
		keep := And(Neq64(id, prev), Neq64(id, InvalidID))
		prev = id
		size += keep
		kv[i] = KV{Key: Not(keep)<<63 | kv[i].Val, Val: Select64(keep, id, InvalidID)}
	}
	bitonicSort(kv, s.trace)
	for i := range s.ids {
		s.ids[i] = kv[i].Val
	}
	return UnionResult{IDs: s.ids, Size: int(size)}
}

// UnionScan is the paper's Θ(K²) linear-scan union: for each incoming
// request, scan the entire result array once, obliviously recording
// whether the ID is already present and obliviously appending it to the
// (secret) tail position if not. The result array is conservatively sized
// to K entries so overflow is impossible. Every input element causes
// exactly one full pass over the result array, so the access pattern is a
// deterministic function of the public K alone.
func UnionScan(reqs []uint64) UnionResult {
	k := len(reqs)
	out := make([]uint64, k)
	for i := range out {
		out[i] = InvalidID
	}
	var size uint64
	for _, r := range reqs {
		real := Neq64(r, InvalidID)
		var present uint64
		// Pass 1 semantics are fused into one pass: a slot matches either
		// if it already holds r (present) or if it is the current tail
		// slot and r is new. Both conditions are evaluated for every slot.
		for j := range out {
			present |= Eq64(out[j], r)
		}
		insert := And(real, Not(present))
		// Second full pass performs the (possibly dummy) append: slot
		// `size` receives r when insert==1; every slot is rewritten.
		for j := range out {
			hit := And(insert, Eq64(uint64(j), size))
			out[j] = Select64(hit, r, out[j])
		}
		size += insert
	}
	return UnionResult{IDs: out, Size: int(size)}
}

// UnionChunked splits reqs into ceil(K/chunkSize) chunks and unions each
// chunk independently, as the paper does when K is large (16K entries per
// chunk in the evaluation). This reduces the quadratic scan cost from
// Θ(K²) to Θ(K·chunkSize) at the price of (a) duplicates across chunks
// not being merged and (b) the ε-FDP noise being added per chunk
// (parallel composition, Sec 4.2). The final (possibly short) chunk keeps
// its natural size; chunk boundaries are public.
func UnionChunked(reqs []uint64, chunkSize int) []UnionResult {
	if chunkSize <= 0 {
		panic("obliv: UnionChunked chunkSize must be positive")
	}
	var res []UnionResult
	for start := 0; start < len(reqs); start += chunkSize {
		end := start + chunkSize
		if end > len(reqs) {
			end = len(reqs)
		}
		res = append(res, Union(reqs[start:end]))
	}
	return res
}

// UnionScanCost returns the number of slot touches UnionScan performs
// for K requests: 2·K² (two full passes over a K-slot array per request).
// The latency model charges this — the paper's design — whatever the host
// runs.
func UnionScanCost(k int) int64 {
	return 2 * int64(k) * int64(k)
}

// UnionChunkedScanCost returns total slot touches for the chunked union.
func UnionChunkedScanCost(k, chunkSize int) int64 {
	if chunkSize <= 0 {
		panic("obliv: chunkSize must be positive")
	}
	var total int64
	for start := 0; start < k; start += chunkSize {
		c := chunkSize
		if start+c > k {
			c = k - start
		}
		total += UnionScanCost(c)
	}
	return total
}
