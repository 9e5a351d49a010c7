package fl

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/fedora"
	"repro/internal/wire"
)

// wirePlane drives one round's embedding-gradient uploads through the
// wire upload plane (Config.UploadCodec). Two deployments share the
// exact same arithmetic:
//
//   - remote (the round implements WireRound): encoded payloads ship to
//     the server, which hosts the wire.Aggregator, runs the unmasking
//     round and applies the per-row sums into its own round — under a
//     masked codec it never sees an individual client's update;
//   - local (fallback): the trainer encodes, aggregates and unmasks
//     in-process, then applies the sums via SubmitAggregates.
//
// Both paths quantize per-client words identically and apply identical
// uint32 word sums per row in ascending order, so the resulting model
// is bit-identical across deployments, codecs (plaintext ≡ masked ≡
// masked-sparse) and worker/shard counts.
type wirePlane struct {
	plan      *wire.Plan
	remote    WireRound        // non-nil: server-hosted aggregation
	agg       *wire.Aggregator // trainer-side aggregation otherwise
	sub       aggregateSubmitter
	uploaders []int
	bytes     uint64
	sats      int
}

// newWirePlane builds the round's plan. The shared domain for the
// sparse codecs is the union of the whole roster's real request rows —
// it must cover eventual dropouts too, since every roster member's
// masks span the domain. The union is already known to the server (it
// served those very rows in step ④), so the domain leaks nothing new.
func (t *Trainer) newWirePlane(round RoundHandle, codec wire.Codec, roster int, reqs [][]uint64) (*wirePlane, error) {
	rnd := t.orch.Round()
	p := wire.Params{
		Codec:       codec,
		NumRows:     t.cfg.Dataset.NumItems,
		Dim:         t.cfg.Dim,
		SubspaceDim: t.cfg.SubspaceDim,
		Round:       rnd,
		Roster:      roster,
		SessionKey:  wire.DeriveSessionKey(t.cfg.Seed, rnd),
	}
	var union []uint64
	if codec == wire.CodecMaskedSparse || codec == wire.CodecSubspace {
		for _, rq := range reqs {
			for _, r := range rq {
				if r != fedora.DummyRequest {
					union = append(union, r)
				}
			}
		}
		slices.Sort(union)
		union = slices.Compact(union)
	}
	plan, err := wire.NewPlan(p, union)
	if err != nil {
		return nil, err
	}
	pl := &wirePlane{plan: plan}
	if wr, ok := round.(WireRound); ok {
		pl.remote = wr
	} else if sub, ok := round.(aggregateSubmitter); ok {
		pl.sub = sub
		pl.agg = wire.NewAggregator(p.NumRows, p.Dim, p.Round)
	} else {
		return nil, fmt.Errorf("fl: round %T supports neither WireRound nor SubmitAggregates", round)
	}
	return pl, nil
}

// payloads recycles encoded payload buffers. A buffer belongs to one
// round: the worker that encodes a client takes it (encode), and the
// merge puts it back once the payload is delivered (upload). Between
// rounds the pool holds them, not the trainer, so the collector may
// drop them.
var payloads = sync.Pool{New: func() any { return new([]byte) }}

// encode appends one client's payload to a pooled buffer through the
// worker's encoder scratch (trainClient calls it on the pool).
func (pl *wirePlane) encode(sc *wire.EncodeScratch, clientIdx int, rows []uint64, deltas [][]float32, samples int) (*[]byte, int, error) {
	buf := payloads.Get().(*[]byte)
	var sats int
	var err error
	*buf, sats, err = pl.plan.AppendEncode((*buf)[:0], sc, clientIdx, rows, deltas, samples)
	if err != nil {
		payloads.Put(buf)
		return nil, 0, err
	}
	return buf, sats, nil
}

// upload accounts for and delivers one surviving client's encoded
// contribution (trainClient encoded it on the worker pool; this runs in
// the merge loop, in client order), then gives the payload's buffer
// back: neither an accepted SubmitUpload nor Aggregator.Add keeps the
// bytes. A refused upload's buffer is left to the collector, since an
// HTTP transport may still be writing a body the server answered
// early. Clients that trained nothing still upload (an empty-domain
// payload): under a masked codec their masks are part of the
// cancellation, and counting them as survivors avoids a needless
// unmasking pair.
func (pl *wirePlane) upload(clientIdx int, payload *[]byte, sats int) error {
	pl.bytes += uint64(len(*payload))
	pl.sats += sats
	pl.uploaders = append(pl.uploaders, clientIdx)
	var err error
	if pl.remote != nil {
		batchID := fmt.Sprintf("wire-r%d-c%d", pl.plan.Params().Round, clientIdx)
		err = pl.remote.SubmitUpload(batchID, *payload)
	} else {
		err = pl.agg.Add(*payload)
	}
	if err != nil {
		return err
	}
	if deadHook != nil {
		deadHook(*payload)
	}
	payloads.Put(payload)
	return nil
}

// finish runs the unmasking round (revealing the orphaned pair seeds
// of every survivor × dropout pair) and applies the reconstructed
// per-row sums. Returns the summary with TRAINER-side byte/saturation
// accounting so local and remote reports match exactly.
func (pl *wirePlane) finish(dropouts []int) (WireUnmaskSummary, error) {
	if len(pl.uploaders) == 0 {
		return WireUnmaskSummary{}, nil // every client dropped: nothing to apply
	}
	reveals := pl.plan.Reveals(pl.uploaders, dropouts)
	if pl.remote != nil {
		sum, err := pl.remote.UnmaskAndApply(reveals)
		if err != nil {
			return WireUnmaskSummary{}, err
		}
		sum.Bytes = pl.bytes
		sum.Saturations = pl.sats
		return sum, nil
	}
	res, err := pl.agg.Unmask(reveals)
	if err != nil {
		return WireUnmaskSummary{}, err
	}
	aggs := make([]fedora.RowAggregate, len(res.Rows))
	for i, r := range res.Rows {
		aggs[i] = fedora.RowAggregate{Row: r.Row, Sum: r.Sum, Count: r.Count}
	}
	delivered, err := pl.sub.SubmitAggregates(aggs)
	if err != nil {
		return WireUnmaskSummary{}, err
	}
	nd := 0
	for _, d := range delivered {
		if d {
			nd++
		}
	}
	return WireUnmaskSummary{Rows: len(aggs), Delivered: nd, Bytes: pl.bytes, Saturations: pl.sats}, nil
}
