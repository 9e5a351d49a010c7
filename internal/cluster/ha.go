package cluster

import (
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
	"repro/internal/persist"
)

// High availability: a primary/standby coordinator pair sharing one
// checkpoint directory (and the round WAL inside it). Leadership is an
// exclusive flock on leaderLockName there, held until Stop or process
// death; the kernel drops it when the process dies, SIGKILL included.
//
//   - The PRIMARY holds the lock and serves the full v2 surface. On
//     taking it, it claims the next coordinator epoch (persisted in the
//     directory), fences every member with it, restores the newest
//     valid cluster checkpoint (wiping any round a dead primary left
//     torn), replays the WAL's committed rounds, and starts serving. A
//     promotion that fails drops the lock again.
//   - A STANDBY serves only read-only discovery routes (everything else
//     answers 409 not_leader with a leader_hint at its peer) and tries
//     the lock every standbyRetry.
//
// No clock decides a failover: a slow or partitioned primary is never
// replaced while it lives, and a restarted old primary waits as
// standby. The price is that a primary alive but stuck does not fail
// over until it is killed.
//
// Epoch fencing stays as defence in depth, should two instances ever
// both lead: every member latches the newest epoch, so the older
// primary gets stale_epoch on every write and stands down
// (Coordinator.Deposed), and claimEpoch serializes claims so no two
// can claim the same epoch and split a member's fence between them.

// epochFileName is the coordinator-epoch file inside the checkpoint
// directory. Decimal text, written atomically (temp file + rename).
// epochLockName is the flock'd lock file that serializes epoch claims
// across processes (the rename only makes individual writes atomic; it
// cannot order two concurrent read-increment-write sequences).
// leaderLockName is the file whose flock is leadership; the leader
// holds it for its lifetime, so it cannot be epochLockName, which its
// own claims and guarded renames take.
const (
	epochFileName  = "coordinator.epoch"
	epochLockName  = "coordinator.epoch.lock"
	leaderLockName = "coordinator.leader.lock"
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

// standbyRetry is how often a standby tries the leader lock.
const standbyRetry = 100 * time.Millisecond

// HAConfig parameterizes an HA instance wrapping a Coordinator.
type HAConfig struct {
	// Coordinator is the instance to run; it must have been built with
	// the shared Config.Manager (HA is meaningless without durability).
	Coordinator *Coordinator
	// SelfURL is this instance's advertised URL (the leader_hint a
	// primary serves).
	SelfURL string
	// PeerURL is the other instance's URL: the leader_hint a standby
	// serves.
	PeerURL string
}

// HA runs leadership around a Coordinator.
type HA struct {
	cfg HAConfig
	co  *Coordinator

	mu     sync.Mutex
	role   string // "primary" or "standby"
	unlock func() // drops the leader lock; nil unless held

	promoted chan struct{} // closed when this instance becomes primary
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// NewHA validates the config and builds the instance (Start takes a
// role).
func NewHA(cfg HAConfig) (*HA, error) {
	if cfg.Coordinator == nil {
		return nil, errors.New("cluster: HA requires a Coordinator")
	}
	if cfg.Coordinator.mgr == nil {
		return nil, errors.New("cluster: HA requires the coordinator to be built with a checkpoint Manager")
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

// Start tries the leader lock once. With the lock, the instance fences,
// recovers and serves before Start returns; a promotion that fails
// drops the lock and is returned. Without it, Start returns at once and
// the instance stands by, retrying the lock every standbyRetry.
func (h *HA) Start() error {
	led, err := h.lead()
	if err != nil || led {
		close(h.done) // no background loop to wait for
		return err
	}
	go h.retryLock()
	return nil
}

// Stop ends a standby's retries, waits for the coordinator's checkpoint
// save in flight, and then drops the leader lock if held. Safe to call
// concurrently and repeatedly.
func (h *HA) Stop() {
	h.stopOnce.Do(func() { close(h.stop) })
	<-h.done
	h.co.WaitSaved()
	h.release()
}

// release drops the leader lock, as the kernel does when the process
// dies. A no-op while standing by or once released.
func (h *HA) release() {
	h.mu.Lock()
	unlock := h.unlock
	h.unlock = nil
	h.mu.Unlock()
	if unlock != nil {
		unlock()
	}
}

// Role reports "primary" or "standby".
func (h *HA) Role() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.role
}

// Promoted is closed once this instance leads: at Start when the lock
// was free, or when a standby promotes (tests and operators wait on it).
func (h *HA) Promoted() <-chan struct{} { return h.promoted }

// lead takes the leader lock without waiting and, holding it, becomes
// primary. It reports false and no error while another instance holds
// the lock. A promotion that fails releases the lock, so no instance
// claims an epoch while another leads.
func (h *HA) lead() (bool, error) {
	unlock, err := persist.TryLockFile(filepath.Join(h.co.mgr.Dir(), leaderLockName))
	if errors.Is(err, persist.ErrLocked) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("cluster: leader lock: %w", err)
	}
	if err := h.becomePrimary(); err != nil {
		unlock()
		return false, err
	}
	h.mu.Lock()
	h.role, h.unlock = "primary", unlock
	h.mu.Unlock()
	close(h.promoted)
	return true, nil
}

// becomePrimary claims the next epoch, fences the members with it,
// recovers checkpoint+WAL state and starts probes. The caller holds the
// leader lock.
func (h *HA) becomePrimary() error {
	epoch, err := claimEpoch(h.co.mgr.Dir(), h.co.Epoch())
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
	return nil
}

// retryLock tries the leader lock every standbyRetry until this
// instance leads or Stop is called. After a failed promotion the next
// try claims a fresh epoch: epochs are cheap, reuse is what is
// forbidden.
func (h *HA) retryLock() {
	defer close(h.done)
	t := time.NewTicker(standbyRetry)
	defer t.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-t.C:
		}
		// A failed try is retried on the next tick; nothing reads its error.
		if led, _ := h.lead(); led {
			return
		}
	}
}

// Leader builds the GET /cluster/leader reply.
func (h *HA) Leader() api.ClusterLeaderResponse {
	resp := api.ClusterLeaderResponse{
		Role:  h.Role(),
		Epoch: h.co.Epoch(),
		Round: h.co.Round(),
	}
	if resp.Role == "primary" {
		resp.LeaderURL = h.cfg.SelfURL
		return resp
	}
	resp.LeaderURL = strings.TrimRight(h.cfg.PeerURL, "/")
	// A standby's epoch is the directory's: the one the leader claimed.
	if e, err := readEpochFile(h.co.mgr.Dir()); err == nil {
		resp.Epoch = e
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
