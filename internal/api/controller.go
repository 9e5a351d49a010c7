package api

import (
	"repro/internal/fedora"
	"repro/internal/shard"
)

// Controller is the backend surface the server serves. It is exactly
// the method set the handlers use on *fedora.Controller, lifted to an
// interface so the same Server can front an in-process controller or a
// cluster coordinator that fans rounds out to member processes
// (internal/cluster). Implementations must be safe for concurrent use
// and must return fedora's sentinel errors (ErrRoundInProgress,
// ErrShardUnavailable wrapped) so the handlers classify failures the
// same way regardless of the backend.
type Controller interface {
	BeginRound(requests [][]uint64) (Round, error)
	// StageRound posts the NEXT round's request lists ahead of its
	// BeginRound — the two-phase contract that lets the controller
	// overlap its ORAM reads with the caller's compute. The adopting
	// BeginRound must present the same lists.
	StageRound(requests [][]uint64) error
	Round() uint64
	NumRows() uint64
	Dim() int
	EffectiveEpsilon() float64
	// Telemetry is what /v2/status and /metrics report about the
	// backend, read in one call (a coordinator asks each member once).
	Telemetry() fedora.Telemetry
	PeekRow(row uint64) ([]float32, error)
	// Health is the shard-level health report behind /healthz and
	// AfterRound. It runs on the round path, so it must not block on I/O.
	Health() shard.HealthReport

	// Snapshot and Restore move the whole controller state: the blob
	// behind every checkpoint and the /v2/admin/snapshot|restore routes.
	Snapshot() ([]byte, error)
	Restore(b []byte) error
	// RecoverQuarantined replays only the quarantined shards' sections of
	// a Snapshot blob and returns their global indices (nil when nothing
	// needed recovery); fedora.ErrRoundOpen while a round is open.
	RecoverQuarantined(b []byte) ([]int, error)
	// AbortRound force-closes an open round without finishing it — what
	// a restore or an epoch fence does to the round it supersedes.
	AbortRound()
}

// Round is an in-flight round as the handlers drive it — the same
// method set as *fedora.Round, which implements it directly.
type Round interface {
	ServeEntry(row uint64) ([]float32, bool, error)
	SubmitGradient(row uint64, grad []float32, nSamples int) (bool, error)
	ServeEntries(rows []uint64) ([]fedora.EntryResult, error)
	SubmitGradients(grads []fedora.RowGradient) ([]bool, error)
	// SubmitAggregates applies already-summed per-row updates — the
	// output of the wire upload plane's unmasking step (see wire.go) or
	// a coordinator's fan-out of the same.
	SubmitAggregates(aggs []fedora.RowAggregate) ([]bool, error)
	Finish() (fedora.RoundStats, error)
}

// ShardPorter is the one optional capability, found by type assertion:
// per-shard state migration addressed by GLOBAL shard index, behind the
// /v2/admin/shards/{shard}/... routes a cluster coordinator uses to
// export sections from members and replay them onto replacements.
// Members serve it; a coordinator does not (its shards live on the
// members), so there those routes answer 501 unsupported.
type ShardPorter interface {
	ShardRange() (first, count int)
	SnapshotShard(global int) ([]byte, error)
	RestoreShard(global int, blob []byte) error
}

// fedoraController adapts *fedora.Controller to Controller: BeginRound
// returns a concrete *fedora.Round there. Everything else — the
// ShardPorter capability included — promotes from the embedded
// controller.
type fedoraController struct{ *fedora.Controller }

func (c fedoraController) BeginRound(requests [][]uint64) (Round, error) {
	r, err := c.Controller.BeginRound(requests)
	if err != nil {
		return nil, err
	}
	return r, nil
}
