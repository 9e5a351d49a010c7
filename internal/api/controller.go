package api

import (
	"repro/internal/device"
	"repro/internal/fedora"
	"repro/internal/shard"
	"repro/internal/storage"
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
	// BeginRound — the two-phase contract that lets a prefetch-enabled
	// controller overlap its ORAM reads with the caller's compute. On a
	// controller without Config.Prefetch the stage is merely remembered;
	// either way the adopting BeginRound must present the same lists.
	StageRound(requests [][]uint64) error
	Round() uint64
	NumRows() uint64
	Dim() int
	Shards() int
	BackendName() string
	EffectiveEpsilon() float64
	MainORAMBytes() uint64
	DRAMResidentBytes() uint64
	SSDStats() device.Stats
	DRAMStats() device.Stats
	PeekRow(row uint64) ([]float32, error)
	Health() shard.HealthReport
	StorageReports() []storage.Report
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

// Snapshotter is the optional whole-state checkpoint capability. The
// auto-recover machinery and the /v2/admin/snapshot|restore endpoints
// use it when the backend provides it.
type Snapshotter interface {
	Snapshot() ([]byte, error)
	Restore(b []byte) error
}

// Recoverer is the optional quarantine-recovery capability
// (checkpoint-section replay of only the fenced shards).
type Recoverer interface {
	RecoverQuarantined(b []byte) ([]int, error)
}

// ShardPorter is the optional per-shard state-migration capability,
// addressed by GLOBAL shard index; it powers the
// /v2/admin/shards/{shard}/... endpoints a cluster coordinator uses to
// export sections from members and replay them onto replacements.
type ShardPorter interface {
	ShardRange() (first, count int)
	SnapshotShard(global int) ([]byte, error)
	RestoreShard(global int, blob []byte) error
}

// Aborter is the optional force-quiesce capability the admin restore
// path uses to clear a round a coordinator fence orphaned.
type Aborter interface {
	AbortRound()
}

// fedoraController adapts *fedora.Controller to Controller: BeginRound
// returns a concrete *fedora.Round there, and Backend() returns the
// enum rather than a string. Everything else — including the optional
// Snapshotter/Recoverer/ShardPorter/Aborter capabilities — promotes
// from the embedded controller.
type fedoraController struct{ *fedora.Controller }

func (c fedoraController) BeginRound(requests [][]uint64) (Round, error) {
	r, err := c.Controller.BeginRound(requests)
	if err != nil {
		return nil, err
	}
	return r, nil
}

func (c fedoraController) BackendName() string { return c.Controller.Backend().String() }
