package shard

import (
	"time"

	"repro/internal/fdp"
)

// RoundStats summarizes one FL round for the evaluation harness. Each
// fedora pipeline produces one for its shard and the Engine merges them
// (the fedora package aliases it), so the fl/api/experiment layers see
// one shape regardless of the shard count.
type RoundStats struct {
	// K is the total number of client requests (public).
	K int
	// KUnion is Σ per-chunk unique requests (secret; exposed here for
	// experiment reporting only).
	KUnion int
	// KSampled is Σ per-chunk sampled k — the main-ORAM access count an
	// adversary observes.
	KSampled int
	// Dummy / Lost are Σ max(0, k−k_union) and Σ max(0, k_union−k).
	Dummy int
	Lost  int
	// CrossChunkDup counts accesses wasted on rows already fetched by an
	// earlier chunk this round (the chunking overhead the paper notes).
	CrossChunkDup int
	// Chunks is the number of union chunks (summed across shards).
	Chunks int
	// RoundEpsilon is the ε-FDP guarantee of the round (parallel
	// composition over chunks, and over shards when sharded).
	RoundEpsilon float64
	// Phase durations (modelled device time, not wall clock). When
	// sharded these sum over shards: they model the work the devices
	// performed, not the elapsed time.
	UnionTime     time.Duration
	ReadTime      time.Duration
	ServeTime     time.Duration
	AggregateTime time.Duration
	UpdateTime    time.Duration
	// Prefetched reports whether this round ran the lookahead prefetch
	// pipeline (fedora.Config.Prefetch): the fetch pass ran on a
	// background goroutine and the write-back pass was deferred to the
	// next round's, whose UpdateTime then carries its modelled time.
	Prefetched bool
	// PrefetchHits / PrefetchWasted count the distinct staged rows that
	// were / were never served this round. Summed across shards.
	PrefetchHits   uint64
	PrefetchWasted uint64
	// WireBytes is the upload-plane payload volume folded into this
	// round (0 when the legacy float gradient path was used). Set by the
	// fl/api layers from the wire aggregator, not by the ORAM pipeline.
	WireBytes uint64
	// Saturations counts fixed-point encodings that clipped on the
	// upload plane this round. Non-zero means the secagg Scale is
	// misconfigured for the gradient magnitudes in play and the masked
	// sums are silently wrong at the clipped coordinates.
	Saturations int
	// QuarantinedShards counts shards that sat out this round (their
	// PerShard entries are zero and carry Quarantined=true).
	QuarantinedShards int
	// PerShard is the engine's per-shard breakdown, one entry per shard
	// (one for a one-shard controller). A cluster's merged round has
	// none: MergeStats leaves it out.
	PerShard []ShardStats
}

// Total is the controller-side critical-path time added to the FL round
// (modelled device time).
func (s RoundStats) Total() time.Duration {
	return s.UnionTime + s.ReadTime + s.ServeTime + s.AggregateTime + s.UpdateTime
}

// ShardStats is one shard's slice of a round.
type ShardStats struct {
	// Shard is the shard index; Rows the number of table rows it owns.
	Shard int
	Rows  uint64
	// Request/access counts, as in RoundStats but for this shard only.
	K        int
	KUnion   int
	KSampled int
	Dummy    int
	Lost     int
	Chunks   int
	// RoundEpsilon is the shard's own parallel-composition guarantee.
	RoundEpsilon float64
	// Quarantined marks a shard that did not serve this round.
	Quarantined bool
}

// MergeStats folds the statistics of parts that served one round side by
// side — an engine's shards, a cluster's member nodes — into the round
// view: counts and modelled device times sum; the round ε composes in
// parallel across parts (max, via the same accountant the chunked union
// uses). A part that sat the round out is passed as the zero value.
func MergeStats(parts []RoundStats) RoundStats {
	var m RoundStats
	var acct fdp.Accountant
	for _, st := range parts {
		m.K += st.K
		m.KUnion += st.KUnion
		m.KSampled += st.KSampled
		m.Dummy += st.Dummy
		m.Lost += st.Lost
		m.CrossChunkDup += st.CrossChunkDup
		m.Chunks += st.Chunks
		m.WireBytes += st.WireBytes
		m.Saturations += st.Saturations
		m.UnionTime += st.UnionTime
		m.ReadTime += st.ReadTime
		m.ServeTime += st.ServeTime
		m.AggregateTime += st.AggregateTime
		m.UpdateTime += st.UpdateTime
		m.PrefetchHits += st.PrefetchHits
		m.PrefetchWasted += st.PrefetchWasted
		m.Prefetched = m.Prefetched || st.Prefetched
		if st.Chunks > 0 {
			acct.Observe(st.RoundEpsilon)
		}
	}
	m.RoundEpsilon = acct.RoundEpsilon()
	return m
}

// merge is MergeStats plus the per-shard breakdown.
func (e *Engine) merge(stats []RoundStats) RoundStats {
	m := MergeStats(stats)
	m.PerShard = make([]ShardStats, len(stats))
	for i, st := range stats {
		m.PerShard[i] = ShardStats{
			Shard: e.cfg.Base + i, Rows: Rows(e.cfg.NumRows, e.cfg.Shards, i),
			K: st.K, KUnion: st.KUnion, KSampled: st.KSampled,
			Dummy: st.Dummy, Lost: st.Lost, Chunks: st.Chunks,
			RoundEpsilon: st.RoundEpsilon,
		}
	}
	return m
}
