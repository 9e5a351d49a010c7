package api

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/fedora"
)

// The row frame is how every embedding row, gradient and aggregate
// crosses HTTP — /entries replies, gradient batches and a coordinator's
// aggregate fan-out. Control-plane bodies stay JSON. Little-endian:
//
//	magic "FRF1" | kind u8 | n u32 | dim u32
//	n × ( row u64 | flags u8 | weight 4 B | dim × float32 bits )
//
// Every record has the same size whether the row was served, lost or
// unavailable (zeros), so a frame's length is a function of (n, dim)
// alone — it cannot say how many rows ε-FDP lost — and floats travel as
// their bits, so NaN payloads, ±Inf, −0 and denormals arrive unchanged.
// weight is the sample count (int32) of a gradient, the summed count
// (float32 bits) of an aggregate and zero for an entry.

// RowFrameContentType marks a row-frame body.
const RowFrameContentType = "application/x-fedora-rows"

// FrameKind says which of the three row shapes a frame carries.
type FrameKind byte

const (
	FrameEntries    FrameKind = 1 // flags: OK, unavailable
	FrameGradients  FrameKind = 2 // weight: samples
	FrameAggregates FrameKind = 3 // weight: count
)

const (
	frameMagic  = "FRF1"
	frameHeader = len(frameMagic) + 1 + 4 + 4
	recordFixed = 8 + 1 + 4

	flagOK          = 1
	flagUnavailable = 2
)

// FrameSize is the exact length of a frame of n records of dim floats.
func FrameSize(n, dim int) int { return frameHeader + n*(recordFixed+4*dim) }

// RowFrame is one frame, decoded: the slice Kind names holds the
// records, the other two are nil.
type RowFrame struct {
	Kind       FrameKind
	Dim        int
	Entries    []fedora.EntryResult
	Gradients  []fedora.RowGradient
	Aggregates []fedora.RowAggregate
}

// Len is the number of records.
func (f RowFrame) Len() int { return len(f.Entries) + len(f.Gradients) + len(f.Aggregates) }

// Record returns record i's row and vector: an entry's value, a
// gradient or an aggregate's sum.
func (f RowFrame) Record(i int) (row uint64, vals []float32) {
	switch f.Kind {
	case FrameEntries:
		return f.Entries[i].Row, f.Entries[i].Entry
	case FrameGradients:
		return f.Gradients[i].Row, f.Gradients[i].Grad
	default:
		return f.Aggregates[i].Row, f.Aggregates[i].Sum
	}
}

// Slice returns records [lo, hi) as a frame sharing f's storage.
func (f RowFrame) Slice(lo, hi int) RowFrame {
	switch f.Kind {
	case FrameEntries:
		f.Entries = f.Entries[lo:hi]
	case FrameGradients:
		f.Gradients = f.Gradients[lo:hi]
	default:
		f.Aggregates = f.Aggregates[lo:hi]
	}
	return f
}

// Select returns a frame of the records idx lists, in idx order, with
// every row lowered by base — a batch translated into the row space of
// a member whose first row is base. Vectors are shared with f; the
// record slice is one fresh allocation.
func (f RowFrame) Select(idx []int, base uint64) RowFrame {
	out := RowFrame{Kind: f.Kind, Dim: f.Dim}
	switch f.Kind {
	case FrameEntries:
		out.Entries = selectRows(f.Entries, idx, func(e *fedora.EntryResult) *uint64 { return &e.Row }, base)
	case FrameGradients:
		out.Gradients = selectRows(f.Gradients, idx, func(g *fedora.RowGradient) *uint64 { return &g.Row }, base)
	default:
		out.Aggregates = selectRows(f.Aggregates, idx, func(a *fedora.RowAggregate) *uint64 { return &a.Row }, base)
	}
	return out
}

// selectRows copies recs[idx[k]] to position k, lowering each row by base.
func selectRows[T any](recs []T, idx []int, row func(*T) *uint64, base uint64) []T {
	out := make([]T, len(idx))
	for k, i := range idx {
		out[k] = recs[i]
		*row(&out[k]) -= base
	}
	return out
}

// AppendRowFrame appends f's encoding to dst. Every vector must be
// f.Dim wide — except a lost or unavailable entry's, which is written
// as zeros whatever it holds — and a sample count must fit an int32.
func AppendRowFrame(dst []byte, f RowFrame) ([]byte, error) {
	if f.Kind < FrameEntries || f.Kind > FrameAggregates {
		return nil, fmt.Errorf("api: row frame: unknown kind %d", f.Kind)
	}
	n := f.Len()
	dst = slices.Grow(dst, FrameSize(n, f.Dim))
	dst = append(dst, frameMagic...)
	dst = append(dst, byte(f.Kind))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(f.Dim))
	for i := 0; i < n; i++ {
		var (
			row    uint64
			flags  byte
			weight uint32
			vals   []float32
		)
		switch f.Kind {
		case FrameEntries:
			e := f.Entries[i]
			row = e.Row
			if e.Unavailable {
				flags |= flagUnavailable
			}
			if e.OK {
				flags |= flagOK
				vals = e.Entry
			}
		case FrameGradients:
			g := f.Gradients[i]
			if g.Samples != int(int32(g.Samples)) {
				return nil, fmt.Errorf("api: row frame: gradient %d: %d samples overflow the frame", i, g.Samples)
			}
			row, weight, vals = g.Row, uint32(int32(g.Samples)), g.Grad
		case FrameAggregates:
			a := f.Aggregates[i]
			row, weight, vals = a.Row, math.Float32bits(a.Count), a.Sum
		}
		zeros := f.Kind == FrameEntries && flags&flagOK == 0
		if len(vals) != f.Dim && !zeros {
			return nil, fmt.Errorf("api: row frame: record %d (row %d) has %d values, frame dim is %d",
				i, row, len(vals), f.Dim)
		}
		dst = binary.LittleEndian.AppendUint64(dst, row)
		dst = append(dst, flags)
		dst = binary.LittleEndian.AppendUint32(dst, weight)
		if zeros {
			dst = append(dst, make([]byte, 4*f.Dim)...) // extends in place
			continue
		}
		for _, v := range vals {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
		}
	}
	return dst, nil
}

// DecodeRowFrame decodes one frame. len(b) == FrameSize(n, dim) is
// checked before anything is allocated, so a hostile header cannot make
// it allocate more than a small multiple of the bytes it was handed.
// The result is two allocations: the record slice and one backing
// []float32 all its vectors point into, both owned by the caller. A
// lost or unavailable entry decodes with a nil vector.
func DecodeRowFrame(b []byte) (RowFrame, error) {
	if len(b) < frameHeader || string(b[:len(frameMagic)]) != frameMagic {
		return RowFrame{}, fmt.Errorf("api: row frame: %d bytes without the %q header", len(b), frameMagic)
	}
	kind := FrameKind(b[len(frameMagic)])
	n := uint64(binary.LittleEndian.Uint32(b[len(frameMagic)+1:]))
	dim := uint64(binary.LittleEndian.Uint32(b[len(frameMagic)+5:]))
	body, rec := uint64(len(b)-frameHeader), recordFixed+4*dim
	if body/rec != n || body%rec != 0 {
		return RowFrame{}, fmt.Errorf("api: row frame: %d bytes is not %d records of dim %d", len(b), n, dim)
	}
	f := RowFrame{Kind: kind, Dim: int(dim)}
	switch kind {
	case FrameEntries:
		f.Entries = make([]fedora.EntryResult, n)
	case FrameGradients:
		f.Gradients = make([]fedora.RowGradient, n)
	case FrameAggregates:
		f.Aggregates = make([]fedora.RowAggregate, n)
	default:
		return RowFrame{}, fmt.Errorf("api: row frame: unknown kind %d", kind)
	}
	backing := make([]float32, n*dim)
	for i := 0; i < int(n); i++ {
		r := b[frameHeader+i*int(rec):][:rec]
		row, flags, weight := binary.LittleEndian.Uint64(r), r[8], binary.LittleEndian.Uint32(r[9:])
		vals := backing[i*f.Dim:][:f.Dim:f.Dim]
		for j := range vals {
			vals[j] = math.Float32frombits(binary.LittleEndian.Uint32(r[recordFixed+4*j:]))
		}
		switch kind {
		case FrameEntries:
			e := fedora.EntryResult{Row: row, OK: flags&flagOK != 0, Unavailable: flags&flagUnavailable != 0}
			if e.OK {
				e.Entry = vals
			}
			f.Entries[i] = e
		case FrameGradients:
			f.Gradients[i] = fedora.RowGradient{Row: row, Grad: vals, Samples: int(int32(weight))}
		case FrameAggregates:
			f.Aggregates[i] = fedora.RowAggregate{Row: row, Sum: vals, Count: math.Float32frombits(weight)}
		}
	}
	return f, nil
}
