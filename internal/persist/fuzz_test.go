package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// Fuzz targets assert the durability layer's hard safety property: any
// byte stream — truncated, bit-flipped, adversarial — decodes to either
// a valid result or a clean error. Never a panic, never an unbounded
// allocation.

func FuzzDecodeCheckpoint(f *testing.F) {
	// Seed with a valid checkpoint and interesting mutations of it.
	cp := NewCheckpoint()
	cp.Epoch = 3
	cp.Put("fl/trainer", []byte("trainer"))
	cp.Put("fedora/controller", bytes.Repeat([]byte{5}, 200))
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(Magic))
	f.Add([]byte{})
	mut := append([]byte(nil), valid...)
	mut[len(Magic)+2] ^= 0xFF
	f.Add(mut)
	// The same stream built in place (sections streamed into the encoder,
	// one of them empty) must be the same bytes; so must one nested in an
	// outer section, which is how a sharded controller snapshot carries
	// its engine container.
	cp.Put("empty", nil)
	buf.Reset()
	if err := cp.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	var e Encoder
	m := e.BeginBytes()
	inPlace := checkpointInPlace(cp, map[string]bool{"fl/trainer": true, "empty": true})
	e.b = append(e.b, inPlace...)
	e.EndBytes(m)
	nested := NewDecoder(e.Finish()).Bytes()
	if !bytes.Equal(inPlace, buf.Bytes()) || !bytes.Equal(nested, buf.Bytes()) {
		f.Fatal("in-place checkpoint stream differs from Checkpoint.Encode")
	}
	f.Add(inPlace)
	f.Add(inPlace[:len(inPlace)-5])

	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := DecodeCheckpoint(bytes.NewReader(data))
		if err == nil && cp == nil {
			t.Fatal("nil checkpoint without error")
		}
	})
}

func FuzzReadWAL(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.wal")
	w, err := OpenWAL(path)
	if err != nil {
		f.Fatal(err)
	}
	for r := uint64(1); r <= 3; r++ {
		if err := w.Append(RoundRecord{Round: r, Seed: int64(r), ClientDigest: r * 7}); err != nil {
			f.Fatal(err)
		}
	}
	w.Close()
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte(WALMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "f.wal")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Skip()
		}
		records, _, err := ReadWALFile(p)
		if err != nil {
			return // clean error is fine
		}
		// Whatever decodes must be structurally sane.
		for _, rec := range records {
			_ = rec
		}
	})
}

func FuzzDecoder(f *testing.F) {
	var e Encoder
	e.U64(3)
	e.Bytes([]byte("abc"))
	e.F32s([]float32{1, 2, 3})
	f.Add(e.Finish())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		d.U8()
		d.U32()
		d.U64()
		d.Bytes()
		_ = d.String()
		d.F32s()
		d.U64s()
		d.F64()
		_ = d.Err()
	})
}
