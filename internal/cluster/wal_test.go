package cluster

import (
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/fedora"
	"repro/internal/persist"
)

// walPayload is a frame payload: version 1, round seq, then body.
func walPayload(seq uint64, body func(e *persist.Encoder)) []byte {
	var e persist.Encoder
	e.U8(walFrameVersion)
	e.U64(seq)
	body(&e)
	return e.Finish()
}

// hugeCountFrames are a CRC-valid begin frame and applied frame whose
// count claims 2^32−1 elements in a payload of a few bytes.
func hugeCountFrames() []persist.RawRecord {
	return []persist.RawRecord{
		{Name: walBeginFrame, Payload: walPayload(1, func(e *persist.Encoder) {
			e.U32(0xFFFFFFFF)
		})},
		{Name: walAppliedFrame, Payload: walPayload(1, func(e *persist.Encoder) {
			e.U32(0) // op
			e.U32(0xFFFFFFFF)
		})},
	}
}

// retiredBatchFrames is a WAL written before batches were row frames:
// a begin, then one cluster/grads batch of one gradient.
func retiredBatchFrames() []persist.RawRecord {
	return []persist.RawRecord{
		{Name: walBeginFrame, Payload: walPayload(1, func(e *persist.Encoder) {
			e.U32(1)
			e.U64s([]uint64{3})
		})},
		{Name: "cluster/grads", Payload: walPayload(1, func(e *persist.Encoder) {
			e.U32(1)
			e.U64(3)
			e.F32s([]float32{1, 2, 3, 4})
			e.I64(1)
		})},
	}
}

// writeRoundLog appends recs to the WAL at path through AppendRaw.
func writeRoundLog(t testing.TB, path string, recs []persist.RawRecord) {
	t.Helper()
	w, err := persist.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, rec := range recs {
		if err := w.AppendRaw(rec.Name, rec.Payload); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRoundLogHugeCountRefused: a CRC-valid frame whose element count
// exceeds its payload is an error, not an allocation of that count.
func TestRoundLogHugeCountRefused(t *testing.T) {
	for _, rec := range hugeCountFrames() {
		t.Run(strings.TrimPrefix(rec.Name, "cluster/"), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "rounds.wal")
			writeRoundLog(t, path, []persist.RawRecord{rec})
			if _, _, err := readRoundLog(path); err == nil || !strings.Contains(err.Error(), "WAL "+rec.Name[len("cluster/"):]+" frame") {
				t.Fatalf("readRoundLog = %v, want a %s error", err, rec.Name)
			}
		})
	}
}

// TestRecoverRefusesRetiredBatchFrame: a WAL holding a batch frame from
// before batches were row frames fails recovery by name; nothing
// replays a subset of it.
func TestRecoverRefusesRetiredBatchFrame(t *testing.T) {
	co := haCoordinator(t, haMembers(t), t.TempDir(), 100)
	writeRoundLog(t, co.mgr.WALPath(), retiredBatchFrames())
	_, err := co.Recover()
	if want := `cluster: unknown WAL frame "cluster/grads"`; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Recover = %v, want %s", err, want)
	}
}

// TestRecoverRefusesOutOfRangeBatchRow: a committed batch naming a row
// outside the table, with its applied frame, fails recovery instead of
// indexing past the shard map while replay filters it.
func TestRecoverRefusesOutOfRangeBatchRow(t *testing.T) {
	co := haCoordinator(t, haMembers(t), t.TempDir(), 100)
	row := haGlobal().NumRows + 44
	batch, err := api.AppendRowFrame(walPayload(1, func(*persist.Encoder) {}), api.RowFrame{
		Kind: api.FrameGradients, Dim: haGlobal().Dim,
		Gradients: []fedora.RowGradient{{Row: row, Grad: haGrad(row), Samples: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	writeRoundLog(t, co.mgr.WALPath(), []persist.RawRecord{
		{Name: walBeginFrame, Payload: walPayload(1, func(e *persist.Encoder) {
			e.U32(1)
			e.U64s([]uint64{3})
		})},
		{Name: walBatchFrame, Payload: batch},
		{Name: walAppliedFrame, Payload: walPayload(1, func(e *persist.Encoder) {
			e.U32(0)
			e.U32(2)
			e.Bool(true)
			e.Bool(true)
		})},
		{Name: walCommitFrame, Payload: walPayload(1, func(*persist.Encoder) {})},
	})
	if _, err := co.Recover(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("Recover = %v, want the row refused as out of range", err)
	}
}

// TestEmptyBatchIsNoop: an empty gradient or aggregate batch on a
// coordinator round delivers nothing and fails nothing.
func TestEmptyBatchIsNoop(t *testing.T) {
	co := haCoordinator(t, haMembers(t), t.TempDir(), 100)
	r, err := co.BeginRound(haRequests(rand.New(rand.NewSource(5))))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range haKinds {
		if got, err := haSubmit(r, tc.kind, nil); err != nil || len(got) != 0 {
			t.Fatalf("empty %s batch = %v, %v; want [], nil", tc.name, got, err)
		}
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

// realRoundLog is the WAL a coordinator's own writers produce for two
// committed rounds: a gradient batch and an aggregate batch, each with
// its applied frame, in round 1; a bare begin and commit in round 2.
func realRoundLog(t testing.TB) []persist.RawRecord {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rounds.wal")
	w, err := persist.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	c := &Coordinator{wal: w}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.logBegin(1, [][]uint64{{3, 200}, {7}}))
	op, err := c.logBatch(1, api.RowFrame{Kind: api.FrameGradients, Dim: 2, Gradients: []fedora.RowGradient{
		{Row: 3, Grad: []float32{1, 2}, Samples: 1}, {Row: 200, Grad: []float32{3, 4}, Samples: 2},
	}})
	must(err)
	must(c.logApplied(1, op, []bool{true, false}))
	op, err = c.logBatch(1, api.RowFrame{Kind: api.FrameAggregates, Dim: 2, Aggregates: []fedora.RowAggregate{
		{Row: 7, Sum: []float32{5, 6}, Count: 3},
	}})
	must(err)
	must(c.logApplied(1, op, []bool{true, true}))
	must(c.logCommit(1))
	must(c.logBegin(2, [][]uint64{{1}}))
	must(c.logCommit(2))
	must(w.Close())
	recs, torn, err := persist.ReadRawWALFile(path)
	if err != nil || torn {
		t.Fatalf("seed WAL: torn %v, err %v", torn, err)
	}
	rounds, _, err := readRoundLog(path)
	if err != nil || len(rounds) != 2 || len(rounds[0].ops) != 2 || rounds[0].ops[0].applied[1] {
		t.Fatalf("seed WAL parses to %+v, %v", rounds, err)
	}
	return recs
}

// FuzzRoundLog: no sequence of CRC-valid WAL records — any names, any
// payloads — panics readRoundLog or makes it allocate beyond its input.
// The fuzz input is the record list, each a persist string (name) then
// persist bytes (payload); decoding stops at the first short record.
func FuzzRoundLog(f *testing.F) {
	encode := func(recs []persist.RawRecord) []byte {
		var e persist.Encoder
		for _, rec := range recs {
			e.String(rec.Name)
			e.Bytes(rec.Payload)
		}
		return e.Finish()
	}
	f.Add(encode(realRoundLog(f)))
	for _, rec := range hugeCountFrames() {
		f.Add(encode([]persist.RawRecord{rec}))
	}
	f.Add(encode(retiredBatchFrames()))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		var recs []persist.RawRecord
		for d := persist.NewDecoder(b); d.Remaining() > 0; {
			rec := persist.RawRecord{Name: d.String(), Payload: d.Bytes()}
			if d.Err() != nil {
				break
			}
			recs = append(recs, rec)
		}
		path := filepath.Join(t.TempDir(), "rounds.wal")
		writeRoundLog(t, path, recs)
		readRoundLog(path) // an error is fine; a panic or OOM is not
	})
}
