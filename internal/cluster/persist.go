package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/client"
	"repro/internal/fedora"
)

// The coordinator's checkpoint story: Snapshot opens one section per
// GLOBAL shard on the owning members and fedora.WriteSnapshot streams
// them into the EXACT blob a single-process controller would have
// produced; a cadence checkpoint streams the same bytes from the open
// replies straight into the checkpoint file, so the coordinator never
// holds a checkpoint byte. Restore and RecoverQuarantined split a blob
// back into sections with fedora.SplitSnapshot and replay each onto its
// owner with RestoreShard. The package knows no format — the snapshot
// is shard's engine container, carrying this coordinator's round,
// around fedora's pipeline blobs — and a one-shard cluster takes the
// same path as any other. That byte-identity is what makes the whole
// checkpoint ecosystem composable: a cluster checkpoint restores into a
// single process, a single-process checkpoint fans out onto a cluster,
// and either one feeds RecoverQuarantined — which here means SHARD
// MIGRATION: replaying sections onto a recovered or replacement node.

// Snapshot assembles the cluster-wide checkpoint blob from one section
// per global shard, streamed from its owning member into one buffer of
// the blob's size. Every member must be live and quiescent
// (fedora.ErrRoundOpen propagates from a member mid-round;
// coordinator-level open rounds are rejected first).
func (c *Coordinator) Snapshot() ([]byte, error) {
	s, err := c.openSections()
	if err != nil {
		return nil, err
	}
	defer s.close()
	var b bytes.Buffer
	b.Grow(int(fedora.SnapshotSize(c.norm, s.sizes)))
	if err := c.writeSnapshot(&b, s); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// sections is a checkpoint's state as the members answered for it: the
// coordinator's round, and every global shard's section as an open
// reply body of known size.
type sections struct {
	round  uint64
	bodies []io.ReadCloser
	sizes  []int64
}

// close releases every reply body; a body already read to its end is
// closed again harmlessly.
func (s *sections) close() {
	for _, b := range s.bodies {
		if b != nil {
			b.Close()
		}
	}
}

// openSections is the part of a snapshot that reads member state: the
// coordinator's round, and every global shard's section opened on its
// owner in parallel. It returns once each member has encoded its
// section and answered with headers; the bytes stay in the replies
// until writeSnapshot reads them.
func (c *Coordinator) openSections() (*sections, error) {
	c.mu.Lock()
	if c.inRound {
		c.mu.Unlock()
		return nil, fedora.ErrRoundOpen
	}
	s := &sections{round: c.round, bodies: make([]io.ReadCloser, c.shards), sizes: make([]int64, c.shards)}
	c.mu.Unlock()

	errs := make([]error, c.shards)
	parallel(c.shards, func(g int) {
		n := c.nodeOf[g]
		if c.isFenced(n) {
			errs[g] = c.unavailable(n)
			return
		}
		body, size, err := c.members[n].cli.SnapshotShard(context.Background(), g)
		if err != nil {
			errs[g] = fmt.Errorf("cluster: snapshot shard %d from node %d: %w", g, n, err)
			return
		}
		s.bodies[g], s.sizes[g] = body, size
	})
	for _, err := range errs {
		if err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// writeSnapshot writes the cluster snapshot to w from s, reading the
// replies in container order and closing each once its section is in.
// A reply cut short fails the write.
func (c *Coordinator) writeSnapshot(w io.Writer, s *sections) error {
	return fedora.WriteSnapshot(w, c.norm, s.round, s.sizes, func(g int, w io.Writer) error {
		defer s.bodies[g].Close()
		if _, err := io.CopyN(w, s.bodies[g], s.sizes[g]); err != nil {
			return fmt.Errorf("cluster: read section from node %d: %w", c.nodeOf[g], err)
		}
		return nil
	})
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
	// quarantined. A node this pass's probe fences is skipped: it just
	// failed to answer. Nodes fenced before the pass are tried, which is
	// how a restarted node returns.
	wasFenced := make([]bool, len(c.members))
	c.mu.Lock()
	for n, m := range c.members {
		wasFenced[n] = m.fenced
	}
	c.mu.Unlock()
	c.probeAll()
	targets := make([][]int, len(c.members))
	c.mu.Lock()
	for n, m := range c.members {
		if m.fenced && !wasFenced[n] {
			continue
		}
		for _, sh := range c.shardView(m) {
			if sh.Quarantined {
				targets[n] = append(targets[n], sh.Shard)
			}
		}
	}
	c.mu.Unlock()

	errs := make([]error, len(c.members))
	c.forEachMember(func(n int) {
		if len(targets[n]) == 0 {
			return
		}
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
