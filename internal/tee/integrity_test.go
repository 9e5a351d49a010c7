package tee

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// This file is the integrity-failure table: every place an adversary (or
// a flipped SSD/SRAM bit — see internal/fault) can corrupt protected
// state, in both freshness schemes the repo implements, must surface as
// the typed ErrAuthFailed so the shard engine can quarantine on it.
//
//	corruption target      counter-group (Sec 5.2)      Merkle (Sec 5.1 baseline)
//	ciphertext             child group tag mismatch     leaf digest mismatch
//	stored child counter   PARENT group tag mismatch    stored digest mismatch
//	auth tag               child group tag mismatch     leaf digest mismatch
//	root (scratchpad)      root-sealed group mismatch   root digest mismatch

// ctrChain is the minimal Sec 5.2 hierarchy: the root counter lives in
// the (trusted) scratchpad and seals the parent group; the parent group
// stores the child group's counter; the child group holds the payload.
type ctrChain struct {
	t       *testing.T
	e       *Engine
	rootCtr uint64 // scratchpad-resident, trusted
	parent  []byte // sealed under (groupID 1, rootCtr); plaintext = child counter
	child   []byte // sealed under (groupID 2, childCtr); plaintext = payload
	// dst is the reused output buffer of every open on the chain, as in
	// an ORAM path read; it starts out holding an earlier group's secret.
	dst []byte
}

const staleSecret = "stale-plaintext-of-another-group"

func newCtrChain(t *testing.T) *ctrChain {
	t.Helper()
	c := &ctrChain{t: t, e: testEngine(), rootCtr: 5, dst: []byte(staleSecret)}
	const childCtr = 9
	c.child = c.e.Seal([]byte("bucket-payload-0123456789abcdef"), 2, childCtr)
	var pp [CounterSize]byte
	binary.LittleEndian.PutUint64(pp[:], childCtr)
	c.parent = c.e.Seal(pp[:], 1, c.rootCtr)
	if err := c.verify(); err != nil {
		t.Fatalf("fresh chain must verify: %v", err)
	}
	return c
}

// verify walks the chain the way an ORAM path read does: open the parent
// under the trusted root counter, extract the child's counter from it,
// then open the child under that counter.
func (c *ctrChain) verify() error {
	pp, err := c.open(c.parent, 1, c.rootCtr)
	if err != nil {
		return err
	}
	childCtr := binary.LittleEndian.Uint64(pp[:CounterSize])
	_, err = c.open(c.child, 2, childCtr)
	return err
}

// open is OpenTo into the chain's dirty reused buffer. A failed open
// must hand back nothing and leave the buffer as it was: neither what
// the buffer held before nor a decryption of unauthenticated bytes may
// pass for this group's plaintext.
func (c *ctrChain) open(sealed []byte, groupID, counter uint64) ([]byte, error) {
	before := append([]byte(nil), c.dst[:cap(c.dst)]...)
	plain, err := c.e.OpenTo(c.dst[:0], sealed, groupID, counter)
	if err != nil {
		if plain != nil {
			c.t.Errorf("failed open returned %d bytes", len(plain))
		}
		if !bytes.Equal(c.dst[:cap(c.dst)], before) {
			c.t.Error("failed open wrote to dst")
		}
	}
	return plain, err
}

// merkleStore is the Sec 5.1 baseline: sealed groups live in untrusted
// memory as Merkle leaves; only the root digest is trusted.
type merkleStore struct {
	tree   *MerkleTree
	leaves [][]byte
}

func newMerkleStore(t *testing.T) *merkleStore {
	t.Helper()
	e := testEngine()
	const n, payload = 4, 32
	tree, err := NewMerkleTree(n, SealedSize(payload))
	if err != nil {
		t.Fatal(err)
	}
	m := &merkleStore{tree: tree}
	for i := 0; i < n; i++ {
		plain := make([]byte, payload)
		plain[0] = byte(i)
		leaf := e.Seal(plain, uint64(i), 1)
		if err := tree.Update(i, leaf); err != nil {
			t.Fatal(err)
		}
		m.leaves = append(m.leaves, leaf)
	}
	if err := m.verify(); err != nil {
		t.Fatalf("fresh merkle store must verify: %v", err)
	}
	return m
}

func (m *merkleStore) verify() error {
	for i, leaf := range m.leaves {
		if err := m.tree.Verify(i, leaf); err != nil {
			return err
		}
	}
	return nil
}

// TestIntegrityCorruptionTable corrupts each protected location in each
// scheme and asserts the typed detection the quarantine path keys on.
func TestIntegrityCorruptionTable(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T) error
	}{
		{"counter-group/ciphertext", func(t *testing.T) error {
			c := newCtrChain(t)
			c.child[0] ^= 0x01 // flip a bit in the child's ciphertext body
			return c.verify()
		}},
		{"counter-group/stored-child-counter", func(t *testing.T) error {
			c := newCtrChain(t)
			// The child counter is stored inside the parent group, so
			// tampering with it is caught when the PARENT fails to verify —
			// the whole point of the Sec 5.2 design.
			c.parent[0] ^= 0x01
			return c.verify()
		}},
		{"counter-group/auth-tag", func(t *testing.T) error {
			c := newCtrChain(t)
			c.child[len(c.child)-1] ^= 0x80 // flip a bit in the trailing tag
			return c.verify()
		}},
		{"counter-group/root-scratchpad-counter", func(t *testing.T) error {
			c := newCtrChain(t)
			// An SRAM bit flip (or rollback) of the trusted root counter:
			// the parent was sealed under the old value, so it no longer
			// opens. Nothing downstream is ever trusted.
			c.rootCtr ^= 1
			return c.verify()
		}},
		{"merkle/ciphertext", func(t *testing.T) error {
			m := newMerkleStore(t)
			m.leaves[2][0] ^= 0x01
			return m.verify()
		}},
		{"merkle/stored-child-counter", func(t *testing.T) error {
			m := newMerkleStore(t)
			// The Merkle analog of a stored counter is an interior digest
			// in untrusted memory; corrupt one with the test hook.
			m.tree.CorruptStoredDigest(1, 0)
			return m.verify()
		}},
		{"merkle/auth-tag", func(t *testing.T) error {
			m := newMerkleStore(t)
			leaf := m.leaves[1]
			leaf[len(leaf)-1] ^= 0x80
			return m.verify()
		}},
		{"merkle/root-scratchpad-counter", func(t *testing.T) error {
			m := newMerkleStore(t)
			// The root digest is the Merkle scheme's scratchpad-resident
			// trust anchor.
			m.tree.CorruptStoredDigest(m.tree.Depth(), 0)
			return m.verify()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run(t)
			if err == nil {
				t.Fatal("corruption went undetected")
			}
			if !errors.Is(err, ErrAuthFailed) {
				t.Fatalf("err = %v, want ErrAuthFailed (typed detection)", err)
			}
		})
	}
}
