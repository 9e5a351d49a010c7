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
//     device costs memory for the leaves it has written and nothing else;
//     a write at index 2^50 allocates one leaf.
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
)

// Table is a sparse array of T indexed by uint64. It is not safe for
// concurrent use, reads included: Get moves the last-leaf memo.
type Table[T comparable] struct {
	leaves map[uint64]*[leafLen]T // by index >> leafBits
	// The leaf of the last lookup: a path's buckets, a chunk's pages and
	// neighbouring ids mostly fall in the leaf just used.
	lastKey uint64
	last    *[leafLen]T
	n       int // present entries
}

// leaf returns the leaf holding index i, or nil if none was written.
func (t *Table[T]) leaf(i uint64) *[leafLen]T {
	key := i >> leafBits
	if t.last != nil && t.lastKey == key {
		return t.last
	}
	l := t.leaves[key]
	if l != nil {
		t.lastKey, t.last = key, l
	}
	return l
}

// Get returns the value at i, the zero value if absent.
func (t *Table[T]) Get(i uint64) T {
	if l := t.leaf(i); l != nil {
		return l[i&(leafLen-1)]
	}
	var zero T
	return zero
}

// Set stores v at i; storing the zero value removes the entry.
func (t *Table[T]) Set(i uint64, v T) {
	var zero T
	l := t.leaf(i)
	if l == nil {
		if v == zero {
			return
		}
		l = new([leafLen]T)
		if t.leaves == nil {
			t.leaves = make(map[uint64]*[leafLen]T)
		}
		t.leaves[i>>leafBits] = l
		t.lastKey, t.last = i>>leafBits, l
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
