package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/persist"
)

// High availability: a primary/standby coordinator pair sharing one
// checkpoint directory (and the round WAL inside it).
//
//   - The PRIMARY serves the full v2 surface. On start it claims the
//     next coordinator epoch (persisted in the directory), fences every
//     member with it, and recovers checkpoint+WAL state.
//   - The STANDBY serves only read-only discovery routes (everything
//     else answers 409 not_leader with a leader_hint) and heartbeats
//     the primary's GET /cluster/leader. After a lease of missed
//     heartbeats it PROMOTES: claims an epoch strictly above both the
//     persisted one and the highest it ever saw the primary advertise,
//     restores the newest valid cluster checkpoint onto the members
//     (wiping any round the dead primary left torn), replays the WAL's
//     committed rounds, and starts serving.
//
// Split-brain is prevented by the members, not by the pair agreeing:
// promotion fences every member at the new epoch, so a revived old
// primary — which still carries the old epoch — gets stale_epoch on
// every write and stands down (Coordinator.Deposed). Two instances can
// transiently both believe they are primary; only one epoch can win
// any member, and claimEpoch serializes the read-increment-write of
// the epoch file under an flock'd lock file, so two racing claimants
// (a restarting primary and a promoting standby) can never both claim
// the same epoch and split a member's fence between them.

// epochFileName is the coordinator-epoch file inside the checkpoint
// directory. Decimal text, written atomically (temp file + rename).
// epochLockName is the flock'd lock file that serializes epoch claims
// across processes (the rename only makes individual writes atomic; it
// cannot order two concurrent read-increment-write sequences).
const (
	epochFileName = "coordinator.epoch"
	epochLockName = "coordinator.epoch.lock"
)

// readEpochFile returns the persisted coordinator epoch (0 when the
// file does not exist yet).
func readEpochFile(dir string) (uint64, error) {
	b, err := os.ReadFile(filepath.Join(dir, epochFileName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	e, err := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("cluster: epoch file %s: %w", epochFileName, err)
	}
	return e, nil
}

// writeEpochFile persists the coordinator epoch atomically.
func writeEpochFile(dir string, e uint64) error {
	return persist.WriteFileAtomic(filepath.Join(dir, epochFileName), func(f *os.File) error {
		_, err := fmt.Fprintf(f, "%d\n", e)
		return err
	})
}

// claimEpoch atomically claims the next coordinator epoch: strictly
// above both the persisted epoch and floor. The whole
// read-increment-write runs under an exclusive flock on a lock file
// beside the epoch file, so two concurrent claimants (a restarted
// primary racing a promoting standby) serialize and claim DISTINCT
// epochs — an unlocked read-modify-write would let both read N and
// both claim N+1, and since members accept equal epochs neither would
// ever be fenced out.
func claimEpoch(dir string, floor uint64) (uint64, error) {
	release, err := persist.LockFile(filepath.Join(dir, epochLockName))
	if err != nil {
		return 0, fmt.Errorf("cluster: lock epoch file: %w", err)
	}
	defer release()
	cur, err := readEpochFile(dir)
	if err != nil {
		return 0, err
	}
	next := cur
	if floor > next {
		next = floor
	}
	next++
	// Persist BEFORE fencing with it: if we crash between this write and
	// the member fan-out, the next incarnation claims a yet-higher epoch
	// — epochs must never be reused.
	if err := writeEpochFile(dir, next); err != nil {
		return 0, fmt.Errorf("cluster: persist epoch %d: %w", next, err)
	}
	return next, nil
}

// HAConfig parameterizes an HA instance wrapping a Coordinator.
type HAConfig struct {
	// Coordinator is the instance to run; it must have been built with
	// the shared Config.Manager (HA is meaningless without durability).
	Coordinator *Coordinator
	// SelfURL is this instance's advertised URL (the leader_hint a
	// primary serves).
	SelfURL string
	// PeerURL is the other instance's URL: the primary to tail when
	// Standby, the standby to hint at otherwise. Required when Standby.
	PeerURL string
	// Standby starts the instance tailing PeerURL instead of serving.
	Standby bool
	// HeartbeatEvery is the standby's probe period (0 = 500ms).
	HeartbeatEvery time.Duration
	// Lease is how long the primary may go unheard before the standby
	// promotes (0 = 2s). It must comfortably exceed HeartbeatEvery plus
	// the primary's worst-case pause; too short risks a spurious — but
	// safe, thanks to epoch fencing — takeover.
	Lease time.Duration
	// Client is the SDK template for the heartbeat connection (BaseURL
	// is overridden with PeerURL; retries are forced off so one missed
	// beat costs one period, not a retry budget).
	Client client.Config
}

// HA runs the failover state machine around a Coordinator.
type HA struct {
	cfg HAConfig
	co  *Coordinator

	mu        sync.Mutex
	role      string // "primary" or "standby"
	peerEpoch uint64 // highest epoch the peer ever advertised
	lastBeat  time.Time
	lastErr   string

	promoted chan struct{} // closed when a standby becomes primary
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// NewHA validates the config and builds the state machine (Start
// actually claims a role).
func NewHA(cfg HAConfig) (*HA, error) {
	if cfg.Coordinator == nil {
		return nil, errors.New("cluster: HA requires a Coordinator")
	}
	if cfg.Coordinator.mgr == nil {
		return nil, errors.New("cluster: HA requires the coordinator to be built with a checkpoint Manager")
	}
	if cfg.Standby && cfg.PeerURL == "" {
		return nil, errors.New("cluster: standby requires the primary's URL (-peer)")
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 500 * time.Millisecond
	}
	if cfg.Lease <= 0 {
		cfg.Lease = 2 * time.Second
	}
	return &HA{
		cfg:      cfg,
		co:       cfg.Coordinator,
		role:     "standby",
		promoted: make(chan struct{}),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}, nil
}

// Start claims the configured role. A primary fences, recovers and
// serves before Start returns; a standby returns immediately with the
// heartbeat loop running.
func (h *HA) Start() error {
	if !h.cfg.Standby {
		if err := h.becomePrimary(); err != nil {
			return err
		}
		close(h.done) // no background loop to wait for
		return nil
	}
	cc := h.cfg.Client
	cc.BaseURL = strings.TrimRight(h.cfg.PeerURL, "/")
	cc.MaxRetries = 0
	peer, err := client.New(cc)
	if err != nil {
		return fmt.Errorf("cluster: standby peer client: %w", err)
	}
	go h.heartbeatLoop(peer)
	return nil
}

// Stop halts a standby's heartbeat loop (no-op once promoted or for a
// primary) and waits for the coordinator's checkpoint save in flight.
// Safe to call concurrently and repeatedly.
func (h *HA) Stop() {
	h.stopOnce.Do(func() { close(h.stop) })
	<-h.done
	h.co.WaitSaved()
}

// Role reports "primary" or "standby".
func (h *HA) Role() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.role
}

// Promoted is closed when a standby finishes promoting (tests and
// operators wait on it; a configured primary closes it at Start).
func (h *HA) Promoted() <-chan struct{} { return h.promoted }

// becomePrimary claims the next epoch, fences the members with it,
// recovers checkpoint+WAL state and starts probes. Used both by a
// configured primary at Start and by a promoting standby.
func (h *HA) becomePrimary() error {
	h.mu.Lock()
	floor := h.peerEpoch
	h.mu.Unlock()
	if own := h.co.Epoch(); own > floor {
		floor = own
	}
	epoch, err := claimEpoch(h.co.mgr.Dir(), floor)
	if err != nil {
		return err
	}
	h.co.SetEpoch(epoch)
	if _, err := h.co.Recover(); err != nil {
		return err
	}
	// Bootstrap: a brand-new directory has no checkpoint yet, and WAL
	// replay needs a base state to restore before redriving rounds.
	epochs, err := h.co.mgr.Epochs()
	if err != nil {
		return err
	}
	if len(epochs) == 0 {
		if err := h.co.checkpointNow(); err != nil {
			return fmt.Errorf("cluster: bootstrap checkpoint: %w", err)
		}
	}
	h.co.StartProbes()
	h.mu.Lock()
	h.role = "primary"
	h.lastErr = ""
	h.mu.Unlock()
	return nil
}

// heartbeatLoop tails the primary and promotes after a missed lease.
func (h *HA) heartbeatLoop(peer *client.Client) {
	defer close(h.done)
	h.mu.Lock()
	h.lastBeat = time.Now() // grant a full lease before the first verdict
	h.mu.Unlock()
	t := time.NewTicker(h.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-t.C:
		}
		ctx, cancel := context.WithTimeout(context.Background(), h.cfg.HeartbeatEvery)
		lr, err := peer.ClusterLeader(ctx)
		cancel()
		h.mu.Lock()
		if err == nil {
			h.lastBeat = time.Now()
			if lr.Epoch > h.peerEpoch {
				h.peerEpoch = lr.Epoch
			}
			h.lastErr = ""
			h.mu.Unlock()
			continue
		}
		h.lastErr = err.Error()
		expired := time.Since(h.lastBeat) > h.cfg.Lease
		h.mu.Unlock()
		if !expired {
			continue
		}
		if err := h.becomePrimary(); err != nil {
			// Promotion failed (members unreachable, checkpoint unreadable
			// …): stay standby and retry after the next missed beat. The
			// epoch file already advanced, which is safe — epochs are
			// cheap, reuse is what is forbidden.
			h.mu.Lock()
			h.lastErr = fmt.Sprintf("promotion failed: %s", err)
			h.mu.Unlock()
			continue
		}
		close(h.promoted)
		return
	}
}

// Leader builds the GET /cluster/leader reply.
func (h *HA) Leader() api.ClusterLeaderResponse {
	h.mu.Lock()
	role := h.role
	h.mu.Unlock()
	resp := api.ClusterLeaderResponse{
		Role:  role,
		Epoch: h.co.Epoch(),
		Round: h.co.Round(),
	}
	if role == "primary" {
		resp.LeaderURL = h.cfg.SelfURL
	} else {
		resp.LeaderURL = strings.TrimRight(h.cfg.PeerURL, "/")
		// A standby's working epoch is the one it will EXCEED when it
		// promotes: the highest the primary has advertised.
		h.mu.Lock()
		if h.peerEpoch > resp.Epoch {
			resp.Epoch = h.peerEpoch
		}
		h.mu.Unlock()
	}
	return resp
}

// standbyAllowed lists the routes a standby still serves: discovery and
// observability, nothing that mutates members.
var standbyAllowed = map[string]bool{
	"/cluster/leader": true,
	"/cluster/status": true,
	"/healthz":        true,
	"/metrics":        true,
	"/v2/status":      true,
}

// Handler wraps the coordinator's HTTP surface with the HA gate: it
// serves GET /cluster/leader itself, passes everything through while
// primary, and while standby rejects all but the discovery routes with
// 409 not_leader + a leader_hint at the peer.
func (h *HA) Handler(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/cluster/leader" {
			if r.Method != http.MethodGet {
				w.Header().Set("Allow", http.MethodGet)
				h.writeEnvelope(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "GET only", "")
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(h.Leader())
			return
		}
		if h.Role() != "primary" && !standbyAllowed[r.URL.Path] {
			h.writeEnvelope(w, http.StatusConflict, api.CodeNotLeader,
				"this coordinator is a standby", strings.TrimRight(h.cfg.PeerURL, "/"))
			return
		}
		inner.ServeHTTP(w, r)
	})
}

// writeEnvelope emits a v2 error envelope (the api package's writer is
// internal to it).
func (h *HA) writeEnvelope(w http.ResponseWriter, status int, code, msg, hint string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(api.ErrorEnvelope{Error: api.ErrorBody{
		Code: code, Message: msg, LeaderHint: hint,
	}})
}
