// Package tee models the trusted execution environment the FEDORA
// controller runs in (Sec 5 of the paper): a small (default 4 KB) on-chip
// scratchpad that is safe from external observation, plus a memory
// encryption engine for everything placed off-chip.
//
// The scratchpad holds only the encryption key, the root counter, and a
// small scratch buffer used to accelerate path eviction (Sec 6.6 / Fig
// 10). All other data structures live in untrusted DRAM or SSD and are
// protected by the counter-based group encryption of Sec 5.2: multiple
// tree nodes are grouped (512 bytes by default), each group is sealed
// with AES-128-GCM under a per-group counter — the tag is a GHASH, the
// Carter–Wegman universal hash hardware memory-encryption engines use —
// and the counter for each group is stored in its *parent* group so that
// tampering with a counter is caught when the parent fails verification
// — no Merkle tree needed. The counter of the root group lives in the
// scratchpad.
package tee

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
)

// DefaultScratchpadSize is the paper's assumed on-chip SRAM budget.
const DefaultScratchpadSize = 4096

// DefaultGroupSize is how many bytes of tree nodes share one
// counter/tag, chosen empirically in the paper (Sec 5.2) to balance
// metadata overhead against encryption latency. Relative to a TEE that
// allocates a counter/tag per 64-byte cache line this is an 8× metadata
// reduction.
const DefaultGroupSize = 512

// TagSize is the length of the AES-GCM authentication tag appended to
// each encrypted group. 16 bytes matches hardware memory encryption
// engines (e.g. Intel MEE).
const TagSize = 16

// CounterSize is the length of the per-group write counter stored in the
// parent group.
const CounterSize = 8

// ErrScratchpadFull is returned when reservations exceed the on-chip SRAM.
var ErrScratchpadFull = errors.New("tee: scratchpad capacity exceeded")

// ErrAuthFailed is returned when a group's tag does not verify — the
// untrusted memory was tampered with or replayed under a stale counter.
var ErrAuthFailed = errors.New("tee: authentication failed (tamper or replay)")

// Scratchpad models the on-chip SRAM. Components reserve byte budgets at
// construction time; the model verifies the total fits, reproducing the
// paper's accounting that key + root counter + eviction scratch space all
// fit in 4 KB.
type Scratchpad struct {
	size     int
	reserved int
	regions  map[string]int
}

// NewScratchpad creates a scratchpad of the given size in bytes. A size
// of 0 models a TEE with no scratchpad at all (the Fig 10 ablation).
func NewScratchpad(size int) *Scratchpad {
	if size < 0 {
		panic("tee: negative scratchpad size")
	}
	return &Scratchpad{size: size, regions: make(map[string]int)}
}

// Reserve claims n bytes for the named component. It fails if the budget
// would be exceeded or the name is already taken.
func (s *Scratchpad) Reserve(name string, n int) error {
	if n < 0 {
		return fmt.Errorf("tee: negative reservation %d for %q", n, name)
	}
	if _, dup := s.regions[name]; dup {
		return fmt.Errorf("tee: region %q already reserved", name)
	}
	if s.reserved+n > s.size {
		return fmt.Errorf("%w: %q needs %d, %d of %d free",
			ErrScratchpadFull, name, n, s.size-s.reserved, s.size)
	}
	s.regions[name] = n
	s.reserved += n
	return nil
}

// Release frees the named reservation.
func (s *Scratchpad) Release(name string) {
	if n, ok := s.regions[name]; ok {
		s.reserved -= n
		delete(s.regions, name)
	}
}

// Free returns the remaining byte budget.
func (s *Scratchpad) Free() int { return s.size - s.reserved }

// Size returns the total scratchpad size.
func (s *Scratchpad) Size() int { return s.size }

// Engine is the memory encryption engine: AES-128-GCM, one call per
// group for confidentiality, integrity and freshness. Freshness comes
// from the (groupID, counter) pair being the 16-byte GCM nonce: replaying
// an old ciphertext fails verification because the caller supplies the
// *current* counter, which it obtained from the (already verified) parent
// group or from the scratchpad-resident root counter.
//
// An Engine is for one goroutine at a time: its nonce, open scratch and
// counters are unsynchronised. Each controller (and each shard's
// sub-controller) owns one and calls it under its own lock. To open
// groups on several goroutines at once, give each its own Opener.
type Engine struct {
	own Opener // SealTo's and OpenTo's key and nonce
	// open is OpenTo's landing buffer: a group is decrypted here and
	// reaches the caller's dst only once its tag verified. Kept for its
	// capacity.
	open  []byte
	stats EngineStats
}

// Opener opens groups under its engine's key with a nonce of its own:
// goroutines holding one Opener each may open at the same time as each
// other and as the engine's owner. An Opener counts nothing; the owner
// adds the work to the engine with AddStats.
type Opener struct {
	aead  cipher.AEAD         // the engine's, read-only after NewEngine
	nonce [aes.BlockSize]byte // the group being sealed or opened, see bind
}

// EngineStats counts crypto work for the performance model.
type EngineStats struct {
	BytesSealed  uint64
	BytesOpened  uint64
	GroupsSealed uint64
	GroupsOpened uint64
	AuthFailures uint64
}

// NewEngine derives an engine from a 32-byte master key, of which the
// first 16 bytes are the AES-128 key.
func NewEngine(masterKey [32]byte) *Engine {
	block, err := aes.NewCipher(masterKey[:16])
	if err != nil {
		panic("tee: aes.NewCipher: " + err.Error()) // impossible for 16-byte key
	}
	aead, err := cipher.NewGCMWithNonceSize(block, aes.BlockSize)
	if err != nil {
		panic("tee: cipher.NewGCMWithNonceSize: " + err.Error())
	}
	return &Engine{own: Opener{aead: aead}}
}

// Opener returns a fresh Opener under e's key.
func (e *Engine) Opener() Opener { return Opener{aead: e.own.aead} }

// bind loads the group's identity — (groupID, counter), 16 bytes — as
// the nonce of the next seal or open.
func (o *Opener) bind(groupID, counter uint64) {
	binary.LittleEndian.PutUint64(o.nonce[0:8], groupID)
	binary.LittleEndian.PutUint64(o.nonce[8:16], counter)
}

// SealedSize returns the ciphertext length for a plaintext of n bytes.
func SealedSize(n int) int { return n + TagSize }

// Seal encrypts plaintext under (groupID, counter) and returns
// ciphertext||tag in a fresh slice. The same (groupID, counter) pair must
// never be reused for different plaintexts; ORAM write logic guarantees
// monotone counters.
func (e *Engine) Seal(plaintext []byte, groupID, counter uint64) []byte {
	return e.SealTo(nil, plaintext, groupID, counter)
}

// SealTo is Seal appending ciphertext||tag to dst and returning the
// extended slice; with enough capacity in dst it does not allocate the
// output. dst must not overlap plaintext.
func (e *Engine) SealTo(dst, plaintext []byte, groupID, counter uint64) []byte {
	e.own.bind(groupID, counter)
	e.stats.BytesSealed += uint64(len(plaintext))
	e.stats.GroupsSealed++
	return e.own.aead.Seal(dst, e.own.nonce[:], plaintext, nil)
}

// Open verifies and decrypts ciphertext||tag produced by Seal under the
// same (groupID, counter), returning the plaintext in a fresh slice. It
// returns ErrAuthFailed on any mismatch.
func (e *Engine) Open(sealed []byte, groupID, counter uint64) ([]byte, error) {
	return e.OpenTo(nil, sealed, groupID, counter)
}

// OpenTo is Open appending the plaintext to dst and returning the
// extended slice. The tag is verified before anything reaches dst: on
// ErrAuthFailed the result is nil and dst's bytes are untouched, so a
// reused buffer never hands back plaintext of an earlier group as if it
// were this one's. dst must not overlap sealed.
func (e *Engine) OpenTo(dst, sealed []byte, groupID, counter uint64) ([]byte, error) {
	plain, err := e.own.Open(e.open, sealed, groupID, counter)
	if err != nil {
		e.stats.AuthFailures++
		return nil, err
	}
	e.open = plain
	e.stats.BytesOpened += uint64(len(plain))
	e.stats.GroupsOpened++
	return append(dst, plain...), nil
}

// Open verifies sealed under (groupID, counter) and decrypts it into
// land, the caller's landing buffer, returning land[:len(sealed)-TagSize]
// (it allocates only when land's capacity is short of that). On
// ErrAuthFailed land's bytes are unspecified: the caller must treat them
// as no group's plaintext. land may start where sealed does (an
// in-place open) but must not otherwise overlap it.
func (o *Opener) Open(land, sealed []byte, groupID, counter uint64) ([]byte, error) {
	o.bind(groupID, counter)
	plain, err := o.aead.Open(land[:0], o.nonce[:], sealed, nil)
	if err != nil {
		return nil, ErrAuthFailed
	}
	return plain, nil
}

// AddStats adds work done through Openers to e's counters.
func (e *Engine) AddStats(d EngineStats) { e.stats.Add(d) }

// Add adds d's counts to s's.
func (s *EngineStats) Add(d EngineStats) {
	s.BytesSealed += d.BytesSealed
	s.BytesOpened += d.BytesOpened
	s.GroupsSealed += d.GroupsSealed
	s.GroupsOpened += d.GroupsOpened
	s.AuthFailures += d.AuthFailures
}

// Stats returns a copy of the accumulated crypto counters.
func (e *Engine) Stats() EngineStats { return e.stats }

// ResetStats zeroes the counters.
func (e *Engine) ResetStats() { e.stats = EngineStats{} }

// GroupLayout describes how a tree structure's nodes are packed into
// encryption groups (Fig 6 of the paper): each stored group holds
// `GroupSize` bytes of node payload plus one CounterSize slot per child
// group (so a parent vouches for its children's freshness) plus the tag.
type GroupLayout struct {
	GroupSize     int // plaintext payload bytes per group
	ChildrenPer   int // child-group counters stored in each parent
	MetadataBytes int // counters + tag per group as stored
}

// NewGroupLayout computes the stored metadata overhead for a grouping
// configuration.
func NewGroupLayout(groupSize, childrenPer int) GroupLayout {
	return GroupLayout{
		GroupSize:     groupSize,
		ChildrenPer:   childrenPer,
		MetadataBytes: childrenPer*CounterSize + TagSize,
	}
}

// OverheadRatio is stored-bytes / payload-bytes − 1, i.e. the fractional
// memory overhead of the encryption metadata.
func (l GroupLayout) OverheadRatio() float64 {
	return float64(l.MetadataBytes) / float64(l.GroupSize)
}

// PerCacheLineOverheadRatio is the baseline the paper compares against: a
// TEE that allocates one counter + tag per 64-byte cache line.
func PerCacheLineOverheadRatio() float64 {
	return float64(CounterSize+TagSize) / 64.0
}
