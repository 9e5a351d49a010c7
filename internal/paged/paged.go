// Package paged provides a sparse array for the ORAM data path's
// per-access lookups — device pages by page index, bucket write counters
// by bucket index, remapped leaves by block id. Those used to be Go maps,
// and hashing one key per bucket on every path dominated the buffer
// ORAM's access; a Table answers the same lookups with a shift, a
// compare and an index.
//
// Invariants callers rely on:
//
//   - Nothing is sized from the index space. A Table over a 2^62-byte
//     device costs memory for the leaves it has written and, if any lies
//     below index 2^21, a directory of at most 4 096 pointers up to the
//     highest of those; a write at index 2^50 allocates one leaf.
//   - Nothing is allocated until the first write of a non-zero value (the
//     zero Table is ready to use), so constructors stay free.
//   - The zero value of T means "absent". Callers that must store a
//     meaningful zero bias it (position.Sparse stores leaf+1).
//   - Range visits the present entries in ascending index order, which is
//     the order every snapshot format that used to sort map keys emits.
package paged

import "slices"

const (
	leafBits = 9
	leafLen  = 1 << leafBits
	// lowKeys bounds the directory of low leaves: a leaf below it is
	// found by indexing a slice (at most 32 KB of pointers, grown to the
	// highest low leaf written) instead of by hashing its key.
	lowKeys = 1 << 12
)

// Table is a sparse array of T indexed by uint64. It is not safe for
// concurrent use, Get included: Get moves the leaf memo. At is the one
// concurrent read.
type Table[T comparable] struct {
	leaves map[uint64]*[leafLen]T // by index >> leafBits
	// low mirrors leaves for keys below lowKeys, by key: a buffer ORAM's
	// bucket counters, its DRAM pages and its block ids all lie there,
	// and a path's deeper levels fall in a different leaf each access.
	low []*[leafLen]T
	// Above the directory, the leaves of the last two lookups, most
	// recent first: a chunk's pages and neighbouring ids mostly fall in
	// the leaf just used, and a tree path alternates between the leaf
	// holding the levels near the root and one holding the levels near
	// the leaves.
	memo [2]memoLeaf[T]
	n    int // present entries
}

// memoLeaf is one remembered leaf and its key.
type memoLeaf[T comparable] struct {
	key  uint64
	leaf *[leafLen]T
}

// leaf returns the leaf holding index i, or nil if none was written;
// with move set, a leaf found above the directory becomes the memo's
// most recent.
func (t *Table[T]) leaf(i uint64, move bool) *[leafLen]T {
	key := i >> leafBits
	if key < lowKeys {
		if key < uint64(len(t.low)) {
			return t.low[key]
		}
		return nil
	}
	if m := t.memo[0]; m.leaf != nil && m.key == key {
		return m.leaf
	}
	if !move {
		return t.leaves[key]
	}
	if m := t.memo[1]; m.leaf != nil && m.key == key {
		t.memo[0], t.memo[1] = m, t.memo[0]
		return m.leaf
	}
	l := t.leaves[key]
	if l != nil {
		t.remember(key, l)
	}
	return l
}

// remember makes l the most recently used leaf.
func (t *Table[T]) remember(key uint64, l *[leafLen]T) {
	t.memo[1], t.memo[0] = t.memo[0], memoLeaf[T]{key, l}
}

// Get returns the value at i, the zero value if absent.
func (t *Table[T]) Get(i uint64) T { return t.get(i, true) }

// At is Get without moving the memo: while nothing calls Get or Set, any
// number of goroutines may call At at once.
func (t *Table[T]) At(i uint64) T { return t.get(i, false) }

func (t *Table[T]) get(i uint64, move bool) T {
	if l := t.leaf(i, move); l != nil {
		return l[i&(leafLen-1)]
	}
	var zero T
	return zero
}

// Set stores v at i; storing the zero value removes the entry.
func (t *Table[T]) Set(i uint64, v T) {
	var zero T
	l := t.leaf(i, true)
	if l == nil {
		if v == zero {
			return
		}
		l = new([leafLen]T)
		if t.leaves == nil {
			t.leaves = make(map[uint64]*[leafLen]T)
		}
		key := i >> leafBits
		t.leaves[key] = l
		if key < lowKeys {
			if key >= uint64(len(t.low)) {
				t.low = slices.Grow(t.low, int(key)+1-len(t.low))[:key+1]
			}
			t.low[key] = l
		} else {
			t.remember(key, l)
		}
	}
	slot := &l[i&(leafLen-1)]
	switch {
	case *slot == zero && v != zero:
		t.n++
	case *slot != zero && v == zero:
		t.n--
	}
	*slot = v
}

// Len returns the number of present entries.
func (t *Table[T]) Len() int { return t.n }

// Range calls fn for every present entry in ascending index order.
func (t *Table[T]) Range(fn func(i uint64, v T)) {
	keys := make([]uint64, 0, len(t.leaves))
	for key := range t.leaves {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	var zero T
	for _, key := range keys {
		for j, v := range t.leaves[key] {
			if v != zero {
				fn(key<<leafBits|uint64(j), v)
			}
		}
	}
}
