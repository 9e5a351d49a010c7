package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/client"
	"repro/internal/fedora"
	"repro/internal/persist"
	"repro/internal/shard"
)

// The coordinator's checkpoint story: Snapshot pulls one section per
// GLOBAL shard from the owning members and assembles the EXACT blob a
// single-process sharded controller would have produced — same sharded
// wrapper (version, shard count, global config digest, round), same
// engine container (meta section with base 0, one globally named
// section per shard, insertion order). That byte-identity is what makes
// the whole checkpoint ecosystem composable: a cluster checkpoint
// restores into a single process, a single-process checkpoint fans out
// onto a cluster, and either one feeds RecoverQuarantined — which here
// means SHARD MIGRATION: replaying sections onto a recovered or
// replacement node.

// snapshot format tags, mirrored from the fedora package.
const (
	monolithicSnapshotVersion = 1
	shardedSnapshotVersion    = 2
)

// Snapshot assembles the cluster-wide checkpoint blob. Every member
// must be live and quiescent (fedora.ErrRoundOpen propagates from a
// member mid-round; coordinator-level open rounds are rejected first).
// A single-shard cluster passes the member's monolithic blob through
// untouched — fedora treats Shards ≤ 1 as monolithic, so that IS the
// single-process format.
func (c *Coordinator) Snapshot() ([]byte, error) {
	c.mu.Lock()
	if c.inRound {
		c.mu.Unlock()
		return nil, fedora.ErrRoundOpen
	}
	round := c.round
	c.mu.Unlock()

	if c.shards == 1 {
		if c.isFenced(0) {
			return nil, c.unavailable(0)
		}
		return c.members[0].cli.Snapshot(context.Background())
	}

	sections := make([][]byte, c.shards)
	errs := make([]error, c.shards)
	var wg sync.WaitGroup
	for g := 0; g < c.shards; g++ {
		n := c.nodeOf[g]
		if c.isFenced(n) {
			errs[g] = c.unavailable(n)
			continue
		}
		wg.Add(1)
		go func(g, n int) {
			defer wg.Done()
			blob, err := c.members[n].cli.SnapshotShard(context.Background(), g)
			if err != nil {
				errs[g] = fmt.Errorf("cluster: snapshot shard %d from node %d: %w", g, n, err)
				return
			}
			sections[g] = blob
		}(g, n)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// The engine container is framed straight into the final buffer,
	// presized from the sections as received.
	size := 1 + 4 + 8 + 8 + 8 + shard.ContainerOverhead(c.shards)
	for _, blob := range sections {
		size += len(blob)
	}
	var e persist.Encoder
	e.Grow(size)
	e.U8(shardedSnapshotVersion)
	e.U32(uint32(c.shards))
	e.U64(c.digest)
	e.U64(round)
	m := e.BeginBytes()
	cp := shard.BeginContainer(&e, c.shards, c.numRows, 0) // base 0: the assembled blob covers the whole range
	for g, blob := range sections {
		cp.Section(shard.SectionName(g), blob)
	}
	cp.Close()
	e.EndBytes(m)
	return e.Finish(), nil
}

// decodeSnapshot verifies a cluster/sharded-controller blob against the
// coordinator's geometry and returns the snapshot round plus the
// per-shard sections by global index.
func (c *Coordinator) decodeSnapshot(b []byte) (round uint64, sections [][]byte, err error) {
	d := persist.NewDecoder(b)
	v := d.U8()
	if d.Err() == nil && v != shardedSnapshotVersion {
		if v == monolithicSnapshotVersion {
			return 0, nil, fmt.Errorf("cluster: snapshot was taken by an unsharded controller, cluster serves %d shards", c.shards)
		}
		return 0, nil, fmt.Errorf("cluster: unsupported controller snapshot version %d", v)
	}
	shards := int(d.U32())
	if d.Err() == nil && shards != c.shards {
		return 0, nil, fmt.Errorf("cluster: snapshot was taken with %d shards, cluster serves %d", shards, c.shards)
	}
	digest := d.U64()
	if d.Err() == nil && digest != c.digest {
		return 0, nil, fmt.Errorf("cluster: snapshot config digest %016x != cluster %016x (configs differ)", digest, c.digest)
	}
	round = d.U64()
	engBlob := d.Bytes()
	if derr := d.Err(); derr != nil {
		return 0, nil, fmt.Errorf("cluster: controller snapshot: %w", derr)
	}
	cp, err := persist.DecodeCheckpoint(bytes.NewReader(engBlob))
	if err != nil {
		return 0, nil, fmt.Errorf("cluster: engine snapshot: %w", err)
	}
	meta, ok := cp.Get("shard/meta")
	if !ok {
		return 0, nil, errors.New("cluster: engine snapshot has no shard/meta section")
	}
	md := persist.NewDecoder(meta)
	mv := md.U8()
	mShards := int(md.U32())
	mRows := md.U64()
	mBase := int(md.U32())
	if derr := md.Err(); derr != nil {
		return 0, nil, fmt.Errorf("cluster: engine snapshot meta: %w", derr)
	}
	if mv != 2 || mShards != c.shards || mRows != c.numRows || mBase != 0 {
		return 0, nil, fmt.Errorf("cluster: engine snapshot geometry (%d shards, %d rows, base %d) does not match cluster (%d shards, %d rows, base 0)",
			mShards, mRows, mBase, c.shards, c.numRows)
	}
	sections = make([][]byte, c.shards)
	for g := 0; g < c.shards; g++ {
		blob, ok := cp.Get(shard.SectionName(g))
		if !ok {
			return 0, nil, fmt.Errorf("cluster: engine snapshot has no %q section", shard.SectionName(g))
		}
		sections[g] = blob
	}
	return round, sections, nil
}

// Restore fans a checkpoint back out: every shard's section is replayed
// onto its owning member (the admin route force-aborts any orphaned
// member round first), members whose every shard restored are
// unfenced, and the coordinator round counter rewinds to the snapshot.
// Any per-shard failure aborts with an error — a full restore is
// all-or-nothing per member, so a dead node fails the restore rather
// than silently serving stale state.
func (c *Coordinator) Restore(b []byte) error {
	c.mu.Lock()
	if c.inRound {
		c.mu.Unlock()
		return fedora.ErrRoundOpen
	}
	c.mu.Unlock()

	if c.shards == 1 {
		d := persist.NewDecoder(b)
		if v := d.U8(); d.Err() == nil && v != monolithicSnapshotVersion {
			return fmt.Errorf("cluster: unsupported controller snapshot version %d for a single-shard cluster", v)
		}
		d.U64() // digest: the member verifies it against its own config
		round := d.U64()
		if err := d.Err(); err != nil {
			return fmt.Errorf("cluster: controller snapshot: %w", err)
		}
		if err := c.members[0].cli.Restore(context.Background(), b); err != nil {
			return err
		}
		c.unfence(0)
		c.mu.Lock()
		c.round = round
		c.mu.Unlock()
		return nil
	}

	round, sections, err := c.decodeSnapshot(b)
	if err != nil {
		return err
	}
	errs := make([]error, len(c.members))
	var wg sync.WaitGroup
	for n, m := range c.members {
		wg.Add(1)
		go func(n int, m *member) {
			defer wg.Done()
			for g := m.spec.First; g < m.spec.First+m.spec.Count; g++ {
				if err := m.cli.RestoreShard(context.Background(), g, sections[g]); err != nil {
					errs[n] = fmt.Errorf("cluster: restore shard %d onto node %d: %w", g, n, err)
					return
				}
			}
		}(n, m)
	}
	wg.Wait()
	for n, err := range errs {
		if err == nil {
			c.unfence(n)
		}
	}
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
// node owns them now. Fenced nodes that are still unreachable simply
// stay fenced (a dead process is the expected state here, not an
// error); a REACHABLE node that rejects a replay is an error. Returns
// the GLOBAL indices recovered, (nil, nil) when nothing needed
// recovery — the same contract as fedora.Controller.RecoverQuarantined,
// so the serving layer's auto-recovery drives migration unmodified.
func (c *Coordinator) RecoverQuarantined(b []byte) ([]int, error) {
	c.mu.Lock()
	if c.inRound {
		c.mu.Unlock()
		return nil, fedora.ErrRoundOpen
	}
	c.mu.Unlock()

	var sections [][]byte
	if c.shards == 1 {
		sections = [][]byte{b} // monolithic blob, replayed whole
	} else {
		var err error
		_, sections, err = c.decodeSnapshot(b)
		if err != nil {
			return nil, err
		}
	}

	var (
		mu        sync.Mutex
		recovered []int
		firstErr  error
	)
	c.forEachMember(func(n int) {
		m := c.members[n]
		var targets []int
		if c.isFenced(n) {
			// A fenced node gets its whole slice back — its state is
			// presumed lost with the process.
			for g := m.spec.First; g < m.spec.First+m.spec.Count; g++ {
				targets = append(targets, g)
			}
		} else {
			// A live node recovers only what it reports quarantined.
			hz, err := m.cli.Healthz(context.Background())
			if err != nil {
				c.fence(n, err)
				return
			}
			for _, sh := range hz.Shards {
				if sh.Quarantined {
					targets = append(targets, sh.Shard)
				}
			}
		}
		if len(targets) == 0 {
			return
		}
		wasFenced := c.isFenced(n)
		for _, g := range targets {
			blob := sections[g]
			if c.shards == 1 {
				// Replay the monolithic blob through the whole-restore
				// path; RestoreShard on a monolithic member means the same
				// thing but this keeps the single-shard wire simple.
				if err := m.cli.Restore(context.Background(), blob); err != nil {
					c.recordRecoverErr(n, err, wasFenced, &mu, &firstErr)
					return
				}
			} else if err := m.cli.RestoreShard(context.Background(), g, blob); err != nil {
				c.recordRecoverErr(n, err, wasFenced, &mu, &firstErr)
				return
			}
			mu.Lock()
			recovered = append(recovered, g)
			mu.Unlock()
		}
		if wasFenced {
			c.unfence(n)
		}
	})
	if firstErr != nil {
		return recovered, firstErr
	}
	if len(recovered) == 0 {
		return nil, nil
	}
	return recovered, nil
}

// recordRecoverErr classifies a replay failure: an *client.APIError in
// the chain means the node is REACHABLE and rejected the replay — a
// real error the caller must see. Anything else is a transport failure:
// the node is (still) dead, which for a fenced node is the expected
// steady state, so it just stays fenced for a later attempt.
func (c *Coordinator) recordRecoverErr(n int, err error, wasFenced bool, mu *sync.Mutex, firstErr *error) {
	var apiErr *client.APIError
	reachable := errors.As(err, &apiErr)
	if !wasFenced || reachable {
		mu.Lock()
		if *firstErr == nil {
			*firstErr = fmt.Errorf("cluster: recover node %d: %w", n, err)
		}
		mu.Unlock()
	}
	c.fence(n, err)
}
