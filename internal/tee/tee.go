// Package tee models the trusted execution environment the FEDORA
// controller runs in (Sec 5 of the paper): a small (default 4 KB) on-chip
// scratchpad that is safe from external observation, plus a memory
// encryption engine for everything placed off-chip.
//
// The scratchpad holds only the encryption key, the root counter, and a
// small scratch buffer used to accelerate path eviction (Sec 6.6 / Fig
// 10). All other data structures live in untrusted DRAM or SSD and are
// protected by the counter-based group encryption of Sec 5.2: multiple
// tree nodes are grouped (512 bytes by default), each group is encrypted
// under a per-group counter and authenticated with a tag, and the counter
// for each group is stored in its *parent* group so that tampering with a
// counter is caught when the parent fails verification — no Merkle tree
// needed. The counter of the root group lives in the scratchpad.
package tee

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"slices"
)

// DefaultScratchpadSize is the paper's assumed on-chip SRAM budget.
const DefaultScratchpadSize = 4096

// DefaultGroupSize is how many bytes of tree nodes share one
// counter/tag, chosen empirically in the paper (Sec 5.2) to balance
// metadata overhead against encryption latency. Relative to a TEE that
// allocates a counter/tag per 64-byte cache line this is an 8× metadata
// reduction.
const DefaultGroupSize = 512

// TagSize is the length of the truncated HMAC-SHA256 authentication tag
// appended to each encrypted group. 16 bytes matches hardware memory
// encryption engines (e.g. Intel MEE).
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

// Engine is the memory encryption engine: AES-128-CTR for
// confidentiality and truncated HMAC-SHA256 for integrity and freshness.
// Freshness comes from the (groupID, counter) pair forming the CTR nonce
// and being bound into the tag: replaying an old ciphertext fails
// verification because the caller supplies the *current* counter, which
// it obtained from the (already verified) parent group or from the
// scratchpad-resident root counter.
//
// An Engine is for one goroutine at a time: the keyed HMAC state, the
// tag scratch and the counters are unsynchronised. Each controller (and
// each shard's sub-controller) owns one and calls it under its own lock.
type Engine struct {
	block cipher.Block
	mac   hash.Hash // HMAC-SHA256 keyed once in NewEngine; Reset per tag
	sum   [sha256.Size]byte
	id    [aes.BlockSize]byte // the group being sealed or opened, see bind
	stats EngineStats
}

// EngineStats counts crypto work for the performance model.
type EngineStats struct {
	BytesSealed  uint64
	BytesOpened  uint64
	GroupsSealed uint64
	GroupsOpened uint64
	AuthFailures uint64
}

// NewEngine derives an engine from a 32-byte master key (16 bytes for
// AES-128, 32 derived for HMAC).
func NewEngine(masterKey [32]byte) *Engine {
	block, err := aes.NewCipher(masterKey[:16])
	if err != nil {
		panic("tee: aes.NewCipher: " + err.Error()) // impossible for 16-byte key
	}
	macKey := sha256.Sum256(append([]byte("fedora-mac-key"), masterKey[:]...))
	return &Engine{block: block, mac: hmac.New(sha256.New, macKey[:])}
}

// bind loads the group's identity — (groupID, counter), 16 bytes — which
// is both the CTR initial counter block and the header the tag covers.
func (e *Engine) bind(groupID, counter uint64) {
	binary.LittleEndian.PutUint64(e.id[0:8], groupID)
	binary.LittleEndian.PutUint64(e.id[8:16], counter)
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
	n := len(plaintext)
	dst = slices.Grow(dst, n+TagSize)
	out := dst[len(dst) : len(dst)+n+TagSize]
	e.bind(groupID, counter)
	cipher.NewCTR(e.block, e.id[:]).XORKeyStream(out[:n], plaintext)
	copy(out[n:], e.tag(out[:n]))
	e.stats.BytesSealed += uint64(n)
	e.stats.GroupsSealed++
	return dst[:len(dst)+n+TagSize]
}

// Open verifies and decrypts ciphertext||tag produced by Seal under the
// same (groupID, counter), returning the plaintext in a fresh slice. It
// returns ErrAuthFailed on any mismatch.
func (e *Engine) Open(sealed []byte, groupID, counter uint64) ([]byte, error) {
	return e.OpenTo(nil, sealed, groupID, counter)
}

// OpenTo is Open appending the plaintext to dst and returning the
// extended slice. The tag is verified before anything is decrypted: on
// ErrAuthFailed the result is nil and dst's bytes are untouched, so a
// reused buffer never hands back plaintext of an earlier group as if it
// were this one's. dst must not overlap sealed.
func (e *Engine) OpenTo(dst, sealed []byte, groupID, counter uint64) ([]byte, error) {
	if len(sealed) < TagSize {
		e.stats.AuthFailures++
		return nil, ErrAuthFailed
	}
	body := sealed[:len(sealed)-TagSize]
	e.bind(groupID, counter)
	if !hmac.Equal(e.tag(body), sealed[len(body):]) {
		e.stats.AuthFailures++
		return nil, ErrAuthFailed
	}
	dst = slices.Grow(dst, len(body))
	out := dst[len(dst) : len(dst)+len(body)]
	cipher.NewCTR(e.block, e.id[:]).XORKeyStream(out, body)
	e.stats.BytesOpened += uint64(len(body))
	e.stats.GroupsOpened++
	return dst[:len(dst)+len(body)], nil
}

// tag computes the truncated HMAC of the bound identity and ciphertext
// into the engine's scratch; the result is valid until the next tag call.
func (e *Engine) tag(ciphertext []byte) []byte {
	e.mac.Reset()
	e.mac.Write(e.id[:])
	e.mac.Write(ciphertext)
	return e.mac.Sum(e.sum[:0])[:TagSize]
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
