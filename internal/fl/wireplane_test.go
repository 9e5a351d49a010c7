package fl

import (
	"strings"
	"testing"

	"repro/internal/fedora"
	"repro/internal/wire"
)

// TestWirePlaneCrossCodecParity is the upload plane's acceptance
// property at the trainer level: plaintext, masked and masked-sparse
// codecs produce BIT-IDENTICAL models (they reconstruct the same
// fixed-point word sums), at any worker/shard combination, including
// rounds with dropouts after mask commitment (exercising the unmasking
// round end to end).
func TestWirePlaneCrossCodecParity(t *testing.T) {
	type variant struct {
		codec   string
		workers int
	}
	// Shard count changes the per-shard ε-FDP sampling (and therefore
	// which rows are lost), so fingerprints only compare at EQUAL shard
	// count — within a shard group, codec and worker count must not
	// matter.
	for _, shards := range []int{0, 2} {
		variants := []variant{
			{"plaintext", 1},
			{"masked", 1},
			{"masked-sparse", 1},
			{"masked", 4},
			{"masked-sparse", 3},
			{"plaintext", 2},
		}
		var ref []float32
		var refBytes uint64
		for _, v := range variants {
			tr := newTrainer(t, Config{
				Epsilon: 1, UsePrivate: true, Seed: 23,
				ClientsPerRound: 12, LocalEpochs: 1,
				DropoutProb: 0.25, // dropouts exercise unmask under masked codecs
				UploadCodec: v.codec, Workers: v.workers, Shards: shards,
			})
			var gotBytes uint64
			var dropped int
			for r := 0; r < 4; r++ {
				rep, err := tr.RunRound()
				if err != nil {
					t.Fatalf("%+v shards=%d round %d: %v", v, shards, r, err)
				}
				if rep.WireBytes == 0 {
					t.Fatalf("%+v shards=%d round %d: WireBytes not accounted", v, shards, r)
				}
				gotBytes += rep.WireBytes
				dropped += rep.DroppedClients
				if rep.Saturations != 0 {
					t.Fatalf("%+v shards=%d round %d: unexpected saturations %d", v, shards, r, rep.Saturations)
				}
			}
			if dropped == 0 {
				t.Fatalf("%+v shards=%d: no dropouts over 4 rounds at DropoutProb 0.25", v, shards)
			}
			fp := modelFingerprint(t, tr)
			if ref == nil {
				ref, refBytes = fp, gotBytes
				continue
			}
			if len(fp) != len(ref) {
				t.Fatalf("%+v shards=%d: fingerprint length %d != %d", v, shards, len(fp), len(ref))
			}
			for i := range fp {
				if fp[i] != ref[i] {
					t.Fatalf("%+v shards=%d diverges from plaintext@1worker at %d: %v vs %v", v, shards, i, fp[i], ref[i])
				}
			}
			// Byte accounting is codec-dependent but deterministic per codec.
			if v.codec == "plaintext" && gotBytes != refBytes {
				t.Fatalf("%+v shards=%d: %d wire bytes, want deterministic %d", v, shards, gotBytes, refBytes)
			}
		}
	}
}

// TestWirePlaneSubspaceTrains: the lossy-in-trajectory subspace codec
// still trains (each round updates only d′ of Dim coordinates per row)
// and is itself deterministic across worker counts.
func TestWirePlaneSubspaceTrains(t *testing.T) {
	run := func(workers int) []float32 {
		tr := newTrainer(t, Config{
			Epsilon: 1, UsePrivate: true, Seed: 31,
			ClientsPerRound: 10, UploadCodec: "subspace", SubspaceDim: 2,
			Workers: workers,
		})
		for r := 0; r < 3; r++ {
			rep, err := tr.RunRound()
			if err != nil {
				t.Fatal(err)
			}
			if rep.WireBytes == 0 {
				t.Fatal("WireBytes not accounted")
			}
		}
		return modelFingerprint(t, tr)
	}
	a, b := run(1), run(4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("subspace diverges across worker counts at %d", i)
		}
	}
}

// TestWirePlaneRejectsUnknownCodec: codec validation happens at build.
func TestWirePlaneRejectsUnknownCodec(t *testing.T) {
	cfg := Config{Dataset: smallMovieLens(), UploadCodec: "gzip"}
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted unknown upload codec")
	}
}

// TestWirePlaneDigestBindsCodec: checkpoints must not restore across
// codec boundaries (the aggregation arithmetic differs).
func TestWirePlaneDigestBindsCodec(t *testing.T) {
	a := newTrainer(t, Config{Epsilon: 1, Seed: 5, UploadCodec: "masked"})
	b := newTrainer(t, Config{Epsilon: 1, Seed: 5, UploadCodec: "plaintext"})
	c := newTrainer(t, Config{Epsilon: 1, Seed: 5, UploadCodec: "masked"})
	if a.configDigest() == b.configDigest() {
		t.Fatal("config digest ignores the upload codec")
	}
	if a.configDigest() != c.configDigest() {
		t.Fatal("config digest not deterministic")
	}
}

// recordingOrch is an in-process orchestrator whose rounds host the
// wire.Aggregator behind the WireRound surface — what a server does —
// and record the SubmitUpload transcript.
type recordingOrch struct {
	*localOrchestrator
	numRows uint64
	dim     int
	uploads []string // "batchID:payload" in arrival order
}

func (o *recordingOrch) BeginRound(reqs [][]uint64) (RoundHandle, error) {
	h, err := o.localOrchestrator.BeginRound(reqs)
	if err != nil {
		return nil, err
	}
	return &recordingRound{RoundHandle: h, orch: o, agg: wire.NewAggregator(o.numRows, o.dim, o.Round())}, nil
}

type recordingRound struct {
	RoundHandle
	orch *recordingOrch
	agg  *wire.Aggregator
}

func (r *recordingRound) SubmitUpload(batchID string, payload []byte) error {
	r.orch.uploads = append(r.orch.uploads, batchID+":"+string(payload))
	return r.agg.Add(payload)
}

func (r *recordingRound) UnmaskAndApply(reveals []wire.Reveal) (WireUnmaskSummary, error) {
	res, err := r.agg.Unmask(reveals)
	if err != nil {
		return WireUnmaskSummary{}, err
	}
	aggs := make([]fedora.RowAggregate, len(res.Rows))
	for i, row := range res.Rows {
		aggs[i] = fedora.RowAggregate{Row: row.Row, Sum: row.Sum, Count: row.Count}
	}
	_, err = r.RoundHandle.(aggregateSubmitter).SubmitAggregates(aggs)
	return WireUnmaskSummary{Rows: len(aggs)}, err
}

// TestWireEncodeOnWorkersKeepsTranscript: payloads are encoded on the
// worker pool, but the merge loop still delivers them in client order —
// so the SubmitUpload transcript (batch ids and payload bytes), the
// byte and saturation accounting and the model are the same at any
// worker count, dropped clients never upload, and (under -race)
// concurrent Plan.Encode on one plan is clean.
func TestWireEncodeOnWorkersKeepsTranscript(t *testing.T) {
	type outcome struct {
		fp      uint64
		bytes   uint64
		sats    int
		dropped int
		uploads []string
	}
	run := func(workers int) outcome {
		cfg := Config{
			Dataset: smallMovieLens(), Dim: 8, Hidden: 16,
			Epsilon: 1, UsePrivate: true, Seed: 29, ClientsPerRound: 12,
			DropoutProb: 0.2, UploadCodec: "masked-sparse", Workers: workers,
		}
		ctrl, err := BuildController(cfg)
		if err != nil {
			t.Fatal(err)
		}
		orch := &recordingOrch{localOrchestrator: &localOrchestrator{ctrl: ctrl}, numRows: cfg.Dataset.NumItems, dim: cfg.Dim}
		tr, err := NewWithOrchestrator(cfg, orch)
		if err != nil {
			t.Fatal(err)
		}
		var out outcome
		participants := 0
		for r := 0; r < 3; r++ {
			rep, err := tr.RunRound()
			if err != nil {
				t.Fatalf("workers=%d round %d: %v", workers, r, err)
			}
			out.bytes += rep.WireBytes
			out.sats += rep.Saturations
			out.dropped += rep.DroppedClients
			participants += rep.Participants
		}
		if out.dropped == 0 {
			t.Fatalf("workers=%d: no client dropped in 3 rounds at DropoutProb 0.2", workers)
		}
		if len(orch.uploads) != participants-out.dropped {
			t.Fatalf("workers=%d: %d uploads from %d participants with %d dropped", workers, len(orch.uploads), participants, out.dropped)
		}
		if out.fp, err = tr.Fingerprint(); err != nil {
			t.Fatal(err)
		}
		out.uploads = orch.uploads
		return out
	}
	ref := run(1)
	for _, workers := range []int{2, 4} {
		got := run(workers)
		if got.fp != ref.fp || got.bytes != ref.bytes || got.sats != ref.sats || got.dropped != ref.dropped {
			t.Fatalf("workers=%d: fingerprint/bytes/sats/dropped %x/%d/%d/%d, want %x/%d/%d/%d",
				workers, got.fp, got.bytes, got.sats, got.dropped, ref.fp, ref.bytes, ref.sats, ref.dropped)
		}
		for i := range ref.uploads {
			if got.uploads[i] != ref.uploads[i] {
				id, _, _ := strings.Cut(ref.uploads[i], ":")
				t.Fatalf("workers=%d: upload %d (%s) differs from the 1-worker transcript", workers, i, id)
			}
		}
	}
	if !strings.HasPrefix(ref.uploads[0], "wire-r1-c") {
		t.Fatalf("first batch id %.20q, want wire-r1-c<client>", ref.uploads[0])
	}
}
