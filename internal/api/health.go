package api

import (
	"errors"
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
//   - after every round, AfterRound runs: every `every`-th round that
//     finishes healthy snapshots the controller and hands the snapshot
//     to the Manager's background saver, which writes it as the next
//     epoch (older epochs pruned to 3) while the next round runs; /healthz
//     waits for that save, so its recover_error reports the newest
//     completed one. After a round finishes degraded (a
//     shard was quarantined by a fault or integrity violation) the
//     quarantined shards — and only those — are restored from the
//     newest checkpoint and rejoin.
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
	// A checkpoint save in flight finishes first, so the reply never
	// predates the save of the round it follows.
	if s.recoverMgr != nil {
		s.recoverMgr.Wait()
	}
	if w, ok := s.ctrl.(interface{ WaitSaved() }); ok {
		w.WaitSaved()
	}
	resp := HealthzResponse{
		HealthReport: s.ctrl.Health(),
		Round:        s.ctrl.Round(),
		Shed:         s.shed.Load(),
		FencedEpoch:  s.fencedEpoch.Load(),
	}
	resp.RecoverError, _ = s.recoverErr.Load().(string)
	status := http.StatusOK
	if resp.Status == shard.StatusUnavailable {
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, resp)
}

// bootstrapRecover runs once at construction: write epoch 1 unless the
// directory already has a checkpoint, so recovery always has one to
// replay.
func (s *Server) bootstrapRecover() {
	epochs, err := s.recoverMgr.Epochs()
	if err == nil && len(epochs) == 0 {
		_, err = s.recoverMgr.SaveSection(persist.ControllerSection, s.ctrl.Snapshot)
	}
	s.setRecoverError(err)
}

// maybeRecover runs AfterRound after every round finish (outside all
// server round state mutexes). The outcome of a checkpoint or recovery
// is recorded for /healthz but never propagates into round traffic; a
// background save records its own outcome when it ends.
func (s *Server) maybeRecover() {
	if s.recoverMgr == nil {
		return
	}
	s.recoverMu.Lock()
	defer s.recoverMu.Unlock()
	save := persist.Save{Saved: func(_ uint64, err error) { s.setRecoverError(err) }}
	if op, err := AfterRound(s.ctrl, s.recoverMgr, s.recoverEvery, s.ctrl.Round(), save); op != UpkeepNone {
		s.setRecoverError(err)
	}
}

// setRecoverError records the latest checkpoint or recovery outcome.
func (s *Server) setRecoverError(err error) { s.recoverErr.Store(errString(err)) }

// Upkeep names the branch of AfterRound that ran.
type Upkeep int

const (
	// UpkeepNone: a healthy round off the cadence, or a recovery that
	// met a round opened meanwhile (benign: the next finish retries).
	UpkeepNone Upkeep = iota
	// UpkeepCheckpoint: healthy and due — the controller's snapshot was
	// taken and its save started in the background, or the error says
	// why no snapshot was taken.
	UpkeepCheckpoint
	// UpkeepRecover: not healthy — the quarantined shards were replayed
	// from the newest checkpoint, or the error says why not.
	UpkeepRecover
)

// AfterRound is the post-round checkpoint rule, written once for both
// durable serving layers — api.Server under WithAutoRecover and the
// cluster coordinator. When ctrl is healthy and round is a multiple of
// every, it starts save on mgr's background saver (a nil save.Take
// snapshots ctrl) and returns once the snapshot is taken: that is all
// the next round waits for. The saver writes the snapshot as mgr's next
// epoch and runs save.Saved — the after-save hook — with the outcome.
// The round's durability point stays where it was (its WAL commit
// frame, or the caller's own), so a crash before the save lands loses
// nothing; status fields set by save.Saved report the newest completed
// save. When ctrl is degraded, AfterRound replays the quarantined
// shards from mgr's newest checkpoint through RecoverQuarantined. It
// returns the branch that ran and its error; each caller records them
// where its operators look.
//
// AfterRound runs after every round, so the ctrl.Health it decides on
// is a local read: an engine's quarantine flags, or a coordinator's
// member view, which the members' finish replies keep current. A
// healthy round off the cadence therefore costs no I/O at all.
func AfterRound(ctrl Controller, mgr *persist.Manager, every int, round uint64, save persist.Save) (Upkeep, error) {
	if ctrl.Health().Status == shard.StatusHealthy {
		if round%uint64(every) != 0 {
			return UpkeepNone, nil
		}
		if save.Take == nil {
			save.Take = func() (func() (*persist.Checkpoint, error), error) {
				blob, err := ctrl.Snapshot()
				cp := persist.OneSection(persist.ControllerSection, blob)
				return func() (*persist.Checkpoint, error) { return cp, nil }, err
			}
		}
		return UpkeepCheckpoint, mgr.Start(save)
	}
	// Degraded (or worse): the survivors keep their current state.
	blob, _, _, err := mgr.LoadSection(persist.ControllerSection)
	if err == nil {
		_, err = ctrl.RecoverQuarantined(blob)
	}
	if errors.Is(err, fedora.ErrRoundOpen) {
		return UpkeepNone, nil
	}
	return UpkeepRecover, err
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
