package api

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/fedora"
	"repro/internal/persist"
	"repro/internal/shard"
)

// This file holds the server's resilience surface:
//
//	/healthz            shard-level health (healthy / degraded /
//	                    unavailable) with per-shard detail
//	WithMaxInFlight     overload protection — bounded concurrent round
//	                    operations, excess load shed with 503+Retry-After
//	WithAutoRecover     integrity-triggered recovery — periodic controller
//	                    checkpoints while healthy, and automatic
//	                    RecoverQuarantined replay from the newest
//	                    checkpoint once a shard is quarantined
//
// Degradation contract: a quarantined shard turns its rows' downloads
// and uploads into per-row "unavailable" results (the round still
// succeeds over the survivors), /healthz flips to "degraded", and — if
// auto-recovery is configured — the next round-finish restores the
// quarantined shards' sections from the newest checkpoint and health
// returns to "healthy". Only when EVERY shard is quarantined does
// /healthz answer 503.

// recoverSection is the checkpoint section holding the controller
// snapshot — the same section name cmd/fedora-server and the durable
// fl.Runner use, so one checkpoint directory serves both.
const recoverSection = "fedora/controller"

// WithMaxInFlight bounds the number of round operations (begin, entry
// and gradient transfers, finish) the server runs concurrently. Excess
// requests are shed immediately with 503, code "overloaded", and a
// Retry-After header — the SDK honors it and retries. Zero or negative
// n means unlimited (the default). Read-only routes (/healthz, status,
// metrics, row peeks) are never shed: they are what an operator needs
// most while the server is saturated.
func WithMaxInFlight(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.inflight = make(chan struct{}, n)
		}
	}
}

// WithAutoRecover wires a checkpoint directory into the serving loop:
//
//   - on construction, a bootstrap checkpoint is written if the
//     directory has none (recovery needs something to replay);
//   - after every `every`-th round finishes healthy, the controller is
//     checkpointed as the next epoch (older epochs pruned to 3);
//   - after a round finishes degraded (a shard was quarantined by a
//     fault or integrity violation), the quarantined shards — and only
//     those — are restored from the newest checkpoint and rejoin.
//
// The restored shards lose the rounds since that checkpoint (bounded by
// `every`); the surviving shards and the round counter are untouched.
// Failures of the recovery machinery itself never fail round traffic —
// they surface as recover_error on /healthz.
func WithAutoRecover(mgr *persist.Manager, every int) Option {
	return func(s *Server) {
		s.recoverMgr = mgr
		if every <= 0 {
			every = 1
		}
		s.recoverEvery = every
	}
}

// Shed reports how many requests overload protection has rejected.
func (s *Server) Shed() uint64 { return s.shed.Load() }

// limit applies overload protection to a round-operation handler.
func (s *Server) limit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.inflight == nil {
			h(w, r)
			return
		}
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
			h(w, r)
		default:
			s.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, CodeOverloaded,
				"server at capacity (%d round operations in flight)", cap(s.inflight))
		}
	}
}

// HealthzResponse is the /healthz wire shape: the shard-level health
// report plus the controller round and any auto-recovery error.
type HealthzResponse struct {
	shard.HealthReport
	Round uint64 `json:"round"`
	// Shed counts requests rejected by overload protection.
	Shed uint64 `json:"shed,omitempty"`
	// RecoverError is the last auto-recovery failure ("" = none); it
	// clears when a later checkpoint or recovery succeeds.
	RecoverError string `json:"recover_error,omitempty"`
	// FencedEpoch is the highest coordinator epoch this server has seen
	// (0 = never fenced); round/admin requests from lower epochs are
	// rejected with stale_epoch.
	FencedEpoch uint64 `json:"fenced_epoch,omitempty"`
}

// handleHealthz reports shard-level health: 200 while the controller
// can serve (healthy or degraded — load balancers should keep routing),
// 503 only when every shard is quarantined.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET only")
		return
	}
	resp := HealthzResponse{
		HealthReport: s.ctrl.Health(),
		Round:        s.ctrl.Round(),
		Shed:         s.shed.Load(),
		FencedEpoch:  s.fencedEpoch.Load(),
	}
	s.recoverMu.Lock()
	resp.RecoverError = s.recoverErr
	s.recoverMu.Unlock()
	status := http.StatusOK
	if resp.Status == shard.StatusUnavailable {
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, resp)
}

// bootstrapRecover runs once at construction: adopt the newest existing
// epoch, or write epoch 1 so recovery always has a checkpoint to replay.
func (s *Server) bootstrapRecover() {
	s.recoverMu.Lock()
	defer s.recoverMu.Unlock()
	epochs, err := s.recoverMgr.Epochs()
	if err != nil {
		s.recoverErr = err.Error()
		return
	}
	if len(epochs) > 0 {
		s.lastEpoch = epochs[len(epochs)-1]
		return
	}
	s.recoverErr = errString(s.checkpointLocked())
}

// maybeRecover runs after every round finish (outside all server round
// state mutexes): checkpoint on a healthy cadence, recover quarantined
// shards otherwise. Recovery-machinery errors are recorded for /healthz
// but never propagate into round traffic.
func (s *Server) maybeRecover() {
	if s.recoverMgr == nil {
		return
	}
	s.recoverMu.Lock()
	defer s.recoverMu.Unlock()
	if s.ctrl.Health().Status == shard.StatusHealthy {
		if s.ctrl.Round()%uint64(s.recoverEvery) == 0 {
			s.recoverErr = errString(s.checkpointLocked())
		}
		return
	}
	// Degraded (or worse): replay the quarantined shards' sections from
	// the newest checkpoint. The survivors keep their current state.
	rec, ok := s.ctrl.(Recoverer)
	if !ok {
		return
	}
	cp, _, err := s.recoverMgr.LoadLatest()
	if err != nil {
		s.recoverErr = err.Error()
		return
	}
	blob, ok := cp.Get(recoverSection)
	if !ok {
		s.recoverErr = fmt.Sprintf("checkpoint epoch %d has no %q section", cp.Epoch, recoverSection)
		return
	}
	if _, err := rec.RecoverQuarantined(blob); err != nil {
		if errors.Is(err, fedora.ErrRoundOpen) {
			// A new round raced in; the next finish retries recovery.
			return
		}
		s.recoverErr = err.Error()
		return
	}
	s.recoverErr = ""
}

// checkpointLocked snapshots the controller as the next epoch and
// prunes old epochs. Caller holds s.recoverMu.
func (s *Server) checkpointLocked() error {
	snap, ok := s.ctrl.(Snapshotter)
	if !ok {
		return fmt.Errorf("api: controller does not support snapshots")
	}
	blob, err := snap.Snapshot()
	if err != nil {
		return err
	}
	cp := persist.NewCheckpoint()
	cp.Put(recoverSection, blob)
	next := s.lastEpoch + 1
	if err := s.recoverMgr.Save(next, cp); err != nil {
		return err
	}
	s.lastEpoch = next
	return s.recoverMgr.Prune(3)
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
