package cluster

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/client"
	"repro/internal/fedora"
)

// The coordinator's checkpoint story: Snapshot pulls one section per
// GLOBAL shard from the owning members and fedora.AssembleSnapshot turns
// them into the EXACT blob a single-process controller would have
// produced; Restore and RecoverQuarantined split a blob back into
// sections with fedora.SplitSnapshot and replay each onto its owner with
// RestoreShard. The package knows no format — the snapshot is shard's
// engine container, carrying this coordinator's round, around fedora's
// pipeline blobs — and a one-shard cluster takes the same path as any
// other. That byte-identity is what makes the whole checkpoint
// ecosystem composable: a cluster checkpoint restores into a single
// process, a single-process checkpoint fans out onto a cluster, and
// either one feeds RecoverQuarantined — which here means SHARD
// MIGRATION: replaying sections onto a recovered or replacement node.

// Snapshot assembles the cluster-wide checkpoint blob from one section
// per global shard, pulled from its owning member. Every member must be
// live and quiescent (fedora.ErrRoundOpen propagates from a member
// mid-round; coordinator-level open rounds are rejected first).
func (c *Coordinator) Snapshot() ([]byte, error) {
	round, sections, err := c.pullSections()
	if err != nil {
		return nil, err
	}
	return fedora.AssembleSnapshot(c.norm, round, sections), nil
}

// pullSections is the part of Snapshot that reads member state: the
// coordinator's round and every global shard's section, pulled from its
// owner in parallel.
func (c *Coordinator) pullSections() (round uint64, sections [][]byte, err error) {
	c.mu.Lock()
	if c.inRound {
		c.mu.Unlock()
		return 0, nil, fedora.ErrRoundOpen
	}
	round = c.round
	c.mu.Unlock()

	sections = make([][]byte, c.shards)
	errs := make([]error, c.shards)
	parallel(c.shards, func(g int) {
		n := c.nodeOf[g]
		if c.isFenced(n) {
			errs[g] = c.unavailable(n)
			return
		}
		blob, err := c.members[n].cli.SnapshotShard(context.Background(), g)
		if err != nil {
			errs[g] = fmt.Errorf("cluster: snapshot shard %d from node %d: %w", g, n, err)
			return
		}
		sections[g] = blob
	})
	for _, err := range errs {
		if err != nil {
			return 0, nil, err
		}
	}
	return round, sections, nil
}

// Restore fans a checkpoint back out: every shard's section is replayed
// onto its owning member (the admin route force-aborts any orphaned
// member round first), members whose every shard restored are
// unfenced, and the coordinator round counter rewinds to the snapshot.
// A checkpoint save in flight finishes first.
// Any per-shard failure aborts with an error — a full restore is
// all-or-nothing per member, so a dead node fails the restore rather
// than silently serving stale state.
func (c *Coordinator) Restore(b []byte) error {
	c.WaitSaved()
	c.mu.Lock()
	if c.inRound {
		c.mu.Unlock()
		return fedora.ErrRoundOpen
	}
	c.mu.Unlock()

	round, sections, err := fedora.SplitSnapshot(c.norm, b)
	if err != nil {
		return err
	}
	errs := make([]error, len(c.members))
	c.forEachMember(func(n int) {
		m := c.members[n]
		var done []int
		for g := m.spec.First; g < m.spec.First+m.spec.Count; g++ {
			if err := m.cli.RestoreShard(context.Background(), g, sections[g]); err != nil {
				errs[n] = fmt.Errorf("cluster: restore shard %d onto node %d: %w", g, n, err)
				return
			}
			done = append(done, g)
		}
		c.restored(n, done)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	c.mu.Lock()
	c.round = round
	c.mu.Unlock()
	return nil
}

// RecoverQuarantined is shard migration: quarantined shards — a fenced
// node's whole slice, or individual shards a live member reports
// quarantined — get their checkpoint sections replayed onto whichever
// node owns them now. It refreshes the member view once and reads the
// targets off it. Fenced nodes that are still unreachable simply stay
// fenced (a dead process is the expected state here, not an error); a
// REACHABLE node that rejects a replay is an error. Returns the GLOBAL
// indices recovered, (nil, nil) when nothing needed recovery — the same
// contract as fedora.Controller.RecoverQuarantined, so the serving
// layer's auto-recovery drives migration unmodified. A checkpoint save
// in flight finishes first.
func (c *Coordinator) RecoverQuarantined(b []byte) ([]int, error) {
	c.WaitSaved()
	c.mu.Lock()
	if c.inRound {
		c.mu.Unlock()
		return nil, fedora.ErrRoundOpen
	}
	c.mu.Unlock()

	_, sections, err := fedora.SplitSnapshot(c.norm, b)
	if err != nil {
		return nil, err
	}

	// A fenced node gets its whole slice back — its state is presumed
	// lost with the process; a live node recovers only what it reports
	// quarantined.
	c.probeAll()
	targets := make([][]int, len(c.members))
	wasFenced := make([]bool, len(c.members))
	c.mu.Lock()
	for n, m := range c.members {
		wasFenced[n] = m.fenced
		for _, sh := range c.shardView(m) {
			if sh.Quarantined {
				targets[n] = append(targets[n], sh.Shard)
			}
		}
	}
	c.mu.Unlock()

	errs := make([]error, len(c.members))
	c.forEachMember(func(n int) {
		m := c.members[n]
		for i, g := range targets[n] {
			if err := m.cli.RestoreShard(context.Background(), g, sections[g]); err != nil {
				// A reachable node (an *client.APIError in the chain)
				// rejected the replay: a real error. A transport failure
				// on a node fenced before this pass means it is still
				// dead, the expected steady state; it stays fenced for a
				// later attempt.
				var apiErr *client.APIError
				if !wasFenced[n] || errors.As(err, &apiErr) {
					errs[n] = fmt.Errorf("cluster: recover node %d: %w", n, err)
				}
				c.fence(n, err)
				targets[n] = targets[n][:i] // what was recovered
				return
			}
		}
		c.restored(n, targets[n])
	})
	var recovered []int
	for _, t := range targets {
		recovered = append(recovered, t...)
	}
	for _, err := range errs {
		if err != nil {
			return recovered, err
		}
	}
	return recovered, nil
}
