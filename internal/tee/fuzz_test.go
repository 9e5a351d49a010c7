package tee

import (
	"bytes"
	"testing"
)

// FuzzOpen feeds arbitrary ciphertexts to the decryption path, opening
// into a dirty reused buffer as the ORAMs do: it must reject everything
// not produced by Seal under the same identity — returning nothing and
// leaving the buffer alone — and must round-trip everything that was.
func FuzzOpen(f *testing.F) {
	var key [32]byte
	key[0] = 7
	e := NewEngine(key)
	f.Add(e.Seal([]byte("hello"), 1, 2), uint64(1), uint64(2))
	f.Add([]byte{}, uint64(0), uint64(0))
	dst := make([]byte, 0, 64)
	f.Fuzz(func(t *testing.T, sealed []byte, groupID, counter uint64) {
		dirty := append([]byte(nil), dst[:cap(dst)]...)
		plain, err := e.OpenTo(dst[:0], sealed, groupID, counter)
		if err != nil {
			if plain != nil || !bytes.Equal(dst[:cap(dst)], dirty) {
				t.Fatalf("failed open returned %x and left dst %x (was %x)", plain, dst[:cap(dst)], dirty)
			}
			return
		}
		if len(plain) <= cap(dst) {
			dst = plain // the next input finds this plaintext in the buffer
		}
		// Anything that authenticates must re-seal to the same ciphertext
		// (Seal is deterministic per (groupID, counter)).
		again := e.Seal(plain, groupID, counter)
		if !bytes.Equal(again, sealed) {
			t.Fatalf("authenticated forgery: %x reopened as %x", sealed, plain)
		}
	})
}
