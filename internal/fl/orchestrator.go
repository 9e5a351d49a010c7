package fl

import (
	"sync"

	"repro/internal/fedora"
	"repro/internal/wire"
)

// The trainer's view of the FEDORA controller is abstracted behind two
// small interfaces so the SAME local-SGD loop can run against an
// in-process controller (fl.New) or a remote serving process over the
// v2 HTTP API (fl.NewWithOrchestrator + internal/client). Everything
// that makes a run seed-deterministic — user selection, round seeds,
// per-client RNG streams, the client-order merge — lives on the trainer
// side, so the two deployments produce bit-identical models for the
// same Config as long as the controller behind the orchestrator was
// built from the same parameters (see BuildController).

// RoundHandle is the per-round access surface the trainer drives: the
// paper's steps ④ (download), ⑥ (gradient upload) and ⑦ (finish).
// Implementations must be safe for concurrent use — trainer workers
// stage downloads in parallel. The batched entry points exist so a
// remote implementation can amortize wire overhead across a client's
// whole working set; *fedora.Round implements both.
type RoundHandle interface {
	ServeEntry(row uint64) (entry []float32, ok bool, err error)
	ServeEntries(rows []uint64) ([]fedora.EntryResult, error)
	SubmitGradient(row uint64, grad []float32, samples int) (delivered bool, err error)
	SubmitGradients(grads []fedora.RowGradient) ([]bool, error)
	Finish() (fedora.RoundStats, error)
}

// WireUnmaskSummary reports what the server applied after the
// unmasking round: how many aggregate rows the wire plane produced,
// how many were delivered into the buffer ORAM (rows on quarantined
// shards are dropped), the payload bytes received, and the fixed-point
// saturation count across all uploads.
type WireUnmaskSummary struct {
	Rows        int
	Delivered   int
	Bytes       uint64
	Saturations int
}

// WireRound is the OPTIONAL upload-plane surface of a RoundHandle,
// discovered by type assertion when Config.UploadCodec selects a wire
// codec. A remote round implements it by shipping the opaque payloads
// to the server (which hosts the wire.Aggregator and applies the
// unmasked sums itself — it never sees an individual update under a
// masked codec); rounds that do not implement it fall back to the
// trainer-side plane (encode → aggregate → SubmitAggregates locally),
// which produces bit-identical models because the math is the same.
type WireRound interface {
	// SubmitUpload delivers one client's encoded payload. batchID keys
	// retry deduplication, like the gradient batch ids. Once an upload
	// is accepted (nil error) the payload is the caller's again: the
	// trainer reuses the buffer for a later client. An accepted HTTP
	// upload has had its whole body read by the server.
	SubmitUpload(batchID string, payload []byte) error
	// UnmaskAndApply runs the unmasking round: the reveals cover the
	// orphaned pair seeds of every (survivor, dropout) pair, the server
	// reconstructs the survivors' sum and folds it into its round.
	UnmaskAndApply(reveals []wire.Reveal) (WireUnmaskSummary, error)
}

// aggregateSubmitter is how the trainer-side plane applies unmasked
// sums to a local round; *fedora.Round implements it.
type aggregateSubmitter interface {
	SubmitAggregates(aggs []fedora.RowAggregate) ([]bool, error)
}

// Orchestrator abstracts where the FEDORA controller lives. Round
// reports the round number the most recent BeginRound opened (used to
// derive the SecAgg session key); PeekRow is the evaluation backdoor
// EvaluateAUC and model export read through.
type Orchestrator interface {
	BeginRound(requests [][]uint64) (RoundHandle, error)
	RoundStager
	Round() uint64
	EffectiveEpsilon() float64
	PeekRow(row uint64) ([]float32, error)
}

// RoundStager is the two-phase leg of an Orchestrator, used when
// Config.Prefetch is on: StageRound posts round R+1's request lists
// while the caller is still between rounds, so the controller can plan
// the round and start its ORAM reads concurrent with whatever the caller
// does next. The caller MUST then BeginRound with the same lists (the
// staged plan has consumed RNG state). Staging is best-effort: a
// StageRound error just means the next BeginRound runs cold, with
// bit-identical results.
type RoundStager interface {
	StageRound(requests [][]uint64) error
}

// localOrchestrator adapts an in-process *fedora.Controller. It caches
// the round number BeginRound opened so Round() stays stable (and
// deterministic) even while a staged next round is already beginning on
// a controller background goroutine.
type localOrchestrator struct {
	ctrl  *fedora.Controller
	mu    sync.Mutex
	round uint64
	begun bool
}

func (o *localOrchestrator) BeginRound(requests [][]uint64) (RoundHandle, error) {
	r, err := o.ctrl.BeginRound(requests)
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	o.round = r.Number()
	o.begun = true
	o.mu.Unlock()
	return r, nil
}

func (o *localOrchestrator) StageRound(requests [][]uint64) error {
	return o.ctrl.StageRound(requests)
}

func (o *localOrchestrator) Round() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.begun {
		return o.round
	}
	return o.ctrl.Round()
}
func (o *localOrchestrator) EffectiveEpsilon() float64 { return o.ctrl.EffectiveEpsilon() }
func (o *localOrchestrator) PeekRow(row uint64) ([]float32, error) {
	return o.ctrl.PeekRow(row)
}
