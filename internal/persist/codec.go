package persist

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Encoder builds a component snapshot payload: little-endian primitives
// plus length-prefixed byte strings. The zero value is ready to use.
//
// A component that nests other components' snapshots does not build
// their blobs and copy them in: it opens a length-prefixed section with
// BeginBytes, hands the encoder to the child's SnapshotTo, and closes
// the section with EndBytes, so every byte of a snapshot is written
// once, into the buffer the outermost caller sized with Grow.
type Encoder struct {
	b []byte
}

// Build runs a component's SnapshotTo over a fresh encoder and returns
// the payload — the body of every Snapshot() that survives as a wrapper.
// The buffer is sized by SnapshotTo's own leading Grow.
func Build(snapshotTo func(*Encoder) error) ([]byte, error) {
	var e Encoder
	if err := snapshotTo(&e); err != nil {
		return nil, err
	}
	return e.Finish(), nil
}

// Grow makes room for n more bytes, so the appends that follow do not
// reallocate until they exceed it.
func (e *Encoder) Grow(n int) {
	if n > cap(e.b)-len(e.b) {
		b := make([]byte, len(e.b), len(e.b)+n)
		copy(b, e.b)
		e.b = b
	}
}

// Len reports the bytes encoded so far.
func (e *Encoder) Len() int { return len(e.b) }

// Mark is the position of a u64 reserved by ReserveU64 or BeginBytes.
type Mark int

// ReserveU64 appends a u64 whose value is only known later (a count of
// records that follow); SetU64 fills it in.
func (e *Encoder) ReserveU64() Mark {
	m := Mark(len(e.b))
	e.U64(0)
	return m
}

// SetU64 overwrites the u64 reserved at m.
func (e *Encoder) SetU64(m Mark, v uint64) {
	binary.LittleEndian.PutUint64(e.b[m:], v)
}

// BeginBytes opens a nested byte string: everything appended until the
// matching EndBytes becomes its contents. The result is byte-identical
// to Bytes(child) for a child encoded on its own. Sections nest.
func (e *Encoder) BeginBytes() Mark { return e.ReserveU64() }

// EndBytes closes the section opened at m by back-patching its length.
func (e *Encoder) EndBytes(m Mark) {
	e.SetU64(m, uint64(len(e.b)-int(m)-8))
}

// Extend appends n bytes and returns them for the caller to fill (a
// pread target). Their initial contents are unspecified.
func (e *Encoder) Extend(n int) []byte {
	e.Grow(n)
	e.b = e.b[:len(e.b)+n]
	return e.b[len(e.b)-n:]
}

// Truncate drops everything after the first n bytes.
func (e *Encoder) Truncate(n int) { e.b = e.b[:n] }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.b = append(e.b, v) }

// Bool appends a bool as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) {
	e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) {
	e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// I64 appends an int64 (two's complement).
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// F32 appends a float32 as its IEEE-754 bits.
func (e *Encoder) F32(v float32) { e.U32(math.Float32bits(v)) }

// F64 appends a float64 as its IEEE-754 bits.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bytes appends a u64 length prefix followed by the bytes.
func (e *Encoder) Bytes(p []byte) {
	e.U64(uint64(len(p)))
	e.b = append(e.b, p...)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) { e.Bytes([]byte(s)) }

// F32s appends a length-prefixed float32 slice.
func (e *Encoder) F32s(v []float32) {
	e.U64(uint64(len(v)))
	for _, f := range v {
		e.F32(f)
	}
}

// U64s appends a length-prefixed uint64 slice.
func (e *Encoder) U64s(v []uint64) {
	e.U64(uint64(len(v)))
	for _, x := range v {
		e.U64(x)
	}
}

// Finish returns the accumulated payload.
func (e *Encoder) Finish() []byte { return e.b }

// Decoder consumes a payload produced by Encoder. Every read method is
// total: on malformed or truncated input it records an error and returns
// the zero value, so decoding code can run straight-line and check Err()
// once at the end. Decoders never panic and never allocate more than the
// input length.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder wraps a payload.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first error encountered, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining reports the unread byte count.
func (d *Decoder) Remaining() int { return len(d.b) - d.off }

func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated %s at offset %d", ErrCorrupt, what, d.off)
	}
}

func (d *Decoder) take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) {
		d.fail(what)
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	p := d.take(1, "u8")
	if p == nil {
		return 0
	}
	return p[0]
}

// Bool reads a one-byte bool.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	p := d.take(4, "u32")
	if p == nil {
		return 0
	}
	return uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	p := d.take(8, "u64")
	if p == nil {
		return 0
	}
	return uint64(p[0]) | uint64(p[1])<<8 | uint64(p[2])<<16 | uint64(p[3])<<24 |
		uint64(p[4])<<32 | uint64(p[5])<<40 | uint64(p[6])<<48 | uint64(p[7])<<56
}

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F32 reads a float32.
func (d *Decoder) F32() float32 { return math.Float32frombits(d.U32()) }

// F64 reads a float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// length reads a u64 length prefix and validates it against the bytes
// actually remaining, so a corrupted prefix can never trigger a huge
// allocation.
func (d *Decoder) length(elemSize int, what string) int {
	n := d.U64()
	if d.err != nil {
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if n > uint64(d.Remaining()/elemSize) {
		d.fail(what + " length")
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string (copied out of the input).
func (d *Decoder) Bytes() []byte {
	n := d.length(1, "bytes")
	p := d.take(n, "bytes")
	if p == nil {
		return nil
	}
	return append([]byte(nil), p...)
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.Bytes()) }

// F32s reads a length-prefixed float32 slice.
func (d *Decoder) F32s() []float32 {
	n := d.length(4, "f32s")
	if d.err != nil {
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = d.F32()
	}
	if d.err != nil {
		return nil
	}
	return out
}

// U64s reads a length-prefixed uint64 slice.
func (d *Decoder) U64s() []uint64 {
	n := d.length(8, "u64s")
	if d.err != nil {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = d.U64()
	}
	if d.err != nil {
		return nil
	}
	return out
}
