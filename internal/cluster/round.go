package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/fedora"
	"repro/internal/shard"
)

// BeginRound validates the batch against the GLOBAL config, routes each
// request list to the member owning its shard — real rows by
// shard.ShardOf, dummy padding by the engine's (client, position)
// round-robin — and begins a member-local round on every live node.
// The per-member request lists are EXACTLY the concatenation of the
// per-shard lists the single-process engine would build for that
// member's slice, which is what makes the fan-out state-transparent.
//
// Mirroring fedora.Controller.BeginRound, the round counter advances
// once validation passes, even if the fan-out then fails — the trainer
// observes the same round numbering either way.
func (c *Coordinator) BeginRound(requests [][]uint64) (api.Round, error) {
	c.mu.Lock()
	if c.inRound {
		c.mu.Unlock()
		return nil, fedora.ErrRoundInProgress
	}
	c.inRound = true
	c.mu.Unlock()

	perNode, err := c.route(requests)
	if err != nil {
		c.endRound()
		return nil, err
	}

	c.mu.Lock()
	c.round++
	seq := c.round
	c.mu.Unlock()

	// Durability point: the round's inputs hit the WAL before any member
	// sees them, so a crashed coordinator can replay the round verbatim.
	if err := c.logBegin(seq, requests); err != nil {
		c.endRound()
		return nil, err
	}

	epoch := c.epoch.Load()
	r := &Round{
		c:     c,
		seq:   seq,
		ids:   make([]string, len(c.members)),
		begun: make([]bool, len(c.members)),
		start: time.Now(),
	}
	var wg sync.WaitGroup
	for n := range c.members {
		if c.isFenced(n) {
			continue
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			info, err := c.members[n].cli.Begin(context.Background(), api.BeginV2Request{
				Requests: perNode[n],
				RoundKey: fmt.Sprintf("coord-e%d-r%d-n%d", epoch, seq, n),
			})
			if err != nil {
				if staleEpoch(err) {
					// A newer coordinator owns the member; do NOT fence the
					// node — it is healthy, WE are stale.
					c.deposed.Store(true)
					return
				}
				c.fence(n, fmt.Errorf("begin round %d: %w", seq, err))
				return
			}
			r.mu.Lock()
			r.ids[n] = info.RoundID
			r.begun[n] = true
			r.mu.Unlock()
		}(n)
	}
	wg.Wait()
	r.beginWall = time.Since(r.start)

	if c.deposed.Load() {
		c.endRound()
		return nil, fmt.Errorf("cluster: begin round %d: coordinator epoch %d superseded by a newer incarnation: %w",
			seq, epoch, api.ErrStaleEpoch)
	}

	// Remember where this round lives on each member: a later StageRound
	// (the next round staged while this one trains) addresses these IDs.
	c.mu.Lock()
	c.lastIDs = append(c.lastIDs[:0], r.ids...)
	c.mu.Unlock()

	live := 0
	for _, b := range r.begun {
		if b {
			live++
		}
	}
	if live == 0 {
		c.endRound()
		return nil, fmt.Errorf("cluster: no live nodes to begin a round: %w", fedora.ErrShardUnavailable)
	}
	return r, nil
}

// route validates the batch and builds the per-member request lists,
// preserving the engine's iteration order: for each client ci, for each
// position j, the row is appended to its member's list for ci. Real
// rows translate to member-local indices; dummies keep obliv's
// InvalidID and pad the member that global round-robin assigns them —
// which only composes when that member serves one shard or the whole
// range (SliceConfig enforces the same restriction via HideCount).
func (c *Coordinator) route(requests [][]uint64) ([][][]uint64, error) {
	if len(requests) > c.norm.MaxClientsPerRound {
		return nil, fmt.Errorf("cluster: %d clients exceeds MaxClientsPerRound %d",
			len(requests), c.norm.MaxClientsPerRound)
	}
	perNode := make([][][]uint64, len(c.members))
	for n := range perNode {
		perNode[n] = make([][]uint64, len(requests))
	}
	for ci, req := range requests {
		if len(req) > c.norm.MaxFeaturesPerClient {
			return nil, fmt.Errorf("cluster: client %d requests %d rows, exceeds MaxFeaturesPerClient %d",
				ci, len(req), c.norm.MaxFeaturesPerClient)
		}
		for j, row := range req {
			var n int
			if row == fedora.DummyRequest {
				g := (ci + j) % c.shards
				n = c.nodeOf[g]
				m := c.members[n]
				if m.spec.Count > 1 && m.spec.Count < c.shards {
					return nil, fmt.Errorf("cluster: dummy request for client %d routes to node %d serving %d of %d shards; dummy round-robin only composes onto single-shard or whole-range members",
						ci, n, m.spec.Count, c.shards)
				}
				perNode[n][ci] = append(perNode[n][ci], fedora.DummyRequest)
				continue
			}
			if row >= c.numRows {
				return nil, fmt.Errorf("cluster: client %d requests row %d outside table of %d rows",
					ci, row, c.numRows)
			}
			n = c.nodeOf[shard.ShardOf(c.numRows, c.shards, row)]
			perNode[n][ci] = append(perNode[n][ci], row-c.members[n].rowBase)
		}
	}
	return perNode, nil
}

// Round is an in-flight cluster round: one member-local round per live
// node, driven in parallel. It implements api.Round.
type Round struct {
	c   *Coordinator
	seq uint64

	mu    sync.Mutex
	ids   []string // per-member server round IDs
	begun []bool   // member has an open local round
	done  bool

	start     time.Time
	beginWall time.Duration
}

// live reports whether node n's local round is open (begun, not fenced
// since).
func (r *Round) live(n int) bool {
	r.mu.Lock()
	b := r.begun[n]
	r.mu.Unlock()
	return b && !r.c.isFenced(n)
}

// drop marks node n's local round unusable after a transport failure
// and fences the node. A stale_epoch rejection instead latches the
// deposed flag without fencing: the member is healthy and owned by a
// newer coordinator — fencing it would poison the successor's view via
// shared state, and this coordinator must simply stand down.
func (r *Round) drop(n int, err error) {
	if staleEpoch(err) {
		r.c.deposed.Store(true)
	} else {
		r.c.fence(n, err)
	}
	r.mu.Lock()
	r.begun[n] = false
	r.mu.Unlock()
}

// roundID returns the server round ID node n's local round runs under.
func (r *Round) roundID(n int) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ids[n]
}

// ServeEntries batches step-④ lookups: rows group by owning member
// (input order preserved within each group), fan out in parallel, and
// scatter back in input order. Rows owned by a fenced or round-lost
// member come back Unavailable, exactly like rows on a quarantined
// shard in the single-process engine.
func (r *Round) ServeEntries(rows []uint64) ([]fedora.EntryResult, error) {
	r.mu.Lock()
	if r.done {
		r.mu.Unlock()
		return nil, fedora.ErrRoundFinished
	}
	r.mu.Unlock()

	results := make([]fedora.EntryResult, len(rows))
	idxByNode := make([][]int, len(r.c.members))
	for i, row := range rows {
		results[i] = fedora.EntryResult{Row: row, Unavailable: true}
		if row >= r.c.numRows {
			return nil, fmt.Errorf("cluster: row %d out of range %d", row, r.c.numRows)
		}
		n := r.c.nodeOf[shard.ShardOf(r.c.numRows, r.c.shards, row)]
		idxByNode[n] = append(idxByNode[n], i)
	}
	var wg sync.WaitGroup
	for n, idxs := range idxByNode {
		if len(idxs) == 0 || !r.live(n) {
			continue
		}
		wg.Add(1)
		go func(n int, idxs []int) {
			defer wg.Done()
			m := r.c.members[n]
			local := make([]uint64, len(idxs))
			for k, i := range idxs {
				local[k] = rows[i] - m.rowBase
			}
			res, err := m.cli.Entries(context.Background(), r.roundID(n), local)
			if err != nil {
				r.drop(n, fmt.Errorf("serve entries round %d: %w", r.seq, err))
				return
			}
			for k, i := range idxs {
				results[i] = fedora.EntryResult{
					Row:         rows[i],
					Entry:       res[k].Entry,
					OK:          res[k].OK,
					Unavailable: res[k].Unavailable,
				}
			}
		}(n, idxs)
	}
	wg.Wait()
	return results, nil
}

// ServeEntry is the singular form: an unavailable row surfaces as a
// wrapped ErrShardUnavailable, like fedora.Round.ServeEntry; OK=false
// with a nil error means the ε-FDP mechanism sacrificed the row.
func (r *Round) ServeEntry(row uint64) ([]float32, bool, error) {
	res, err := r.ServeEntries([]uint64{row})
	if err != nil {
		return nil, false, err
	}
	if res[0].Unavailable {
		return nil, false, fmt.Errorf("cluster: row %d: %w", row, fedora.ErrShardUnavailable)
	}
	return res[0].Entry, res[0].OK, nil
}

// SubmitGradients batches step-⑥ submissions, grouped and scattered
// like ServeEntries; gradients for rows on lost members report
// delivered=false.
func (r *Round) SubmitGradients(grads []fedora.RowGradient) ([]bool, error) {
	r.mu.Lock()
	if r.done {
		r.mu.Unlock()
		return nil, fedora.ErrRoundFinished
	}
	r.mu.Unlock()

	// Durability point: gradients are WAL'd before any member applies
	// them, so replay reapplies exactly what the members saw.
	opIdx, err := r.c.logGrads(r.seq, grads)
	if err != nil {
		return nil, err
	}

	delivered := make([]bool, len(grads))
	applied := make([]bool, len(r.c.members))
	idxByNode := make([][]int, len(r.c.members))
	for i, g := range grads {
		if g.Row >= r.c.numRows {
			return nil, fmt.Errorf("cluster: row %d out of range %d", g.Row, r.c.numRows)
		}
		n := r.c.nodeOf[shard.ShardOf(r.c.numRows, r.c.shards, g.Row)]
		idxByNode[n] = append(idxByNode[n], i)
	}
	var wg sync.WaitGroup
	for n, idxs := range idxByNode {
		if len(idxs) == 0 || !r.live(n) {
			continue
		}
		wg.Add(1)
		go func(n int, idxs []int) {
			defer wg.Done()
			m := r.c.members[n]
			local := make([]api.GradientRequest, len(idxs))
			for k, i := range idxs {
				local[k] = api.GradientRequest{
					Row:     grads[i].Row - m.rowBase,
					Grad:    grads[i].Grad,
					Samples: grads[i].Samples,
				}
			}
			ok, err := m.cli.SubmitGradients(context.Background(), r.roundID(n), local)
			if err != nil {
				r.drop(n, fmt.Errorf("submit gradients round %d: %w", r.seq, err))
				return
			}
			applied[n] = true
			for k, i := range idxs {
				delivered[i] = ok[k]
			}
		}(n, idxs)
	}
	wg.Wait()
	// Durability point: record which nodes the batch actually landed on.
	// Without it, replay would land a bounced batch on the restored
	// member AND the trainer's logged resubmission — double-applied.
	if err := r.c.logApplied(r.seq, opIdx, applied); err != nil {
		return nil, err
	}
	return delivered, nil
}

// SubmitAggregates fans already-summed row updates out to the owning
// members — the coordinator-side application step of a wire upload
// round. The coordinator hosts the wire aggregator (in its api.Server
// wrapper) and only ever handles masked payloads and the final sums;
// members receive the sums as a gradient batch carrying Aggregates,
// translated to member-local row indices like every other fan-out.
// Rows on lost members report delivered=false, mirroring quarantined
// shards.
func (r *Round) SubmitAggregates(aggs []fedora.RowAggregate) ([]bool, error) {
	r.mu.Lock()
	if r.done {
		r.mu.Unlock()
		return nil, fedora.ErrRoundFinished
	}
	r.mu.Unlock()

	// Durability point, mirroring SubmitGradients.
	opIdx, err := r.c.logAggs(r.seq, aggs)
	if err != nil {
		return nil, err
	}

	delivered := make([]bool, len(aggs))
	applied := make([]bool, len(r.c.members))
	idxByNode := make([][]int, len(r.c.members))
	for i, a := range aggs {
		if a.Row >= r.c.numRows {
			return nil, fmt.Errorf("cluster: row %d out of range %d", a.Row, r.c.numRows)
		}
		n := r.c.nodeOf[shard.ShardOf(r.c.numRows, r.c.shards, a.Row)]
		idxByNode[n] = append(idxByNode[n], i)
	}
	var wg sync.WaitGroup
	for n, idxs := range idxByNode {
		if len(idxs) == 0 || !r.live(n) {
			continue
		}
		wg.Add(1)
		go func(n int, idxs []int) {
			defer wg.Done()
			m := r.c.members[n]
			local := make([]api.AggregateRequest, len(idxs))
			for k, i := range idxs {
				local[k] = api.AggregateRequest{
					Row:   aggs[i].Row - m.rowBase,
					Sum:   aggs[i].Sum,
					Count: aggs[i].Count,
				}
			}
			ok, err := m.cli.SubmitAggregates(context.Background(), r.roundID(n), local)
			if err != nil {
				r.drop(n, fmt.Errorf("submit aggregates round %d: %w", r.seq, err))
				return
			}
			applied[n] = true
			for k, i := range idxs {
				delivered[i] = ok[k]
			}
		}(n, idxs)
	}
	wg.Wait()
	// Durability point, mirroring SubmitGradients' applied frame.
	if err := r.c.logApplied(r.seq, opIdx, applied); err != nil {
		return nil, err
	}
	return delivered, nil
}

// SubmitGradient is the singular form; a gradient for a lost member's
// row reports (false, nil), matching the engine's degraded-mode
// contract.
func (r *Round) SubmitGradient(row uint64, grad []float32, nSamples int) (bool, error) {
	ok, err := r.SubmitGradients([]fedora.RowGradient{{Row: row, Grad: grad, Samples: nSamples}})
	if err != nil {
		return false, err
	}
	return ok[0], nil
}

// Finish closes every surviving member round in parallel and merges the
// per-node statistics with the engine's arithmetic: counts and modelled
// device times sum, UnionWallTime takes the slowest node, the round ε
// composes in parallel (max via the accountant), and ReadWallTime is
// the coordinator's own begin-fan-out elapsed time minus the union
// section. If every member round was lost, the round fails with a
// wrapped ErrShardUnavailable, mirroring the engine's total-loss path.
func (r *Round) Finish() (fedora.RoundStats, error) {
	r.mu.Lock()
	if r.done {
		r.mu.Unlock()
		return fedora.RoundStats{}, fedora.ErrRoundFinished
	}
	r.done = true
	r.mu.Unlock()
	defer r.c.endRound()

	finishStart := time.Now()
	stats := make([]shard.RoundStats, len(r.c.members))
	served := make([]bool, len(r.c.members))
	var wg sync.WaitGroup
	for n := range r.c.members {
		if !r.live(n) {
			continue
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			info, err := r.c.members[n].cli.FinishRound(context.Background(), r.roundID(n))
			if err != nil {
				r.drop(n, fmt.Errorf("finish round %d: %w", r.seq, err))
				return
			}
			if info.Stats == nil {
				r.drop(n, fmt.Errorf("finish round %d: member returned no stats", r.seq))
				return
			}
			st, err := info.Stats.Stats()
			if err != nil {
				r.drop(n, fmt.Errorf("finish round %d: %w", r.seq, err))
				return
			}
			stats[n], served[n] = st, true
		}(n)
	}
	wg.Wait()
	finishWall := time.Since(finishStart)

	// A lost member's stats stay zero: it contributes its shard count to
	// the quarantine tally and nothing to the merge.
	survivors, quarantined := 0, 0
	for n, ok := range served {
		if ok {
			survivors++
		} else {
			quarantined += r.c.members[n].spec.Count
		}
	}
	if survivors == 0 {
		if r.c.deposed.Load() {
			return fedora.RoundStats{}, fmt.Errorf("cluster: round %d deposed by a newer coordinator epoch: %w",
				r.seq, api.ErrStaleEpoch)
		}
		return fedora.RoundStats{}, fmt.Errorf("cluster: round lost on every node: %w", fedora.ErrShardUnavailable)
	}
	m := shard.MergeStats(stats, r.beginWall, finishWall)
	m.QuarantinedShards = quarantined

	// Durability point: the commit frame seals the round in the WAL —
	// replay redrives only rounds whose commit made it to disk, so a
	// torn round (crash mid-fan-out) is discarded, not half-applied.
	// The window between the members applying Finish and the commit
	// frame landing is at-least-once: a crash there makes replay redrive
	// a round the members already ran, which is safe because replay
	// first RESTORES the pre-round checkpoint onto them.
	if err := r.c.logCommit(r.seq); err != nil {
		return fedora.RoundStats{}, err
	}
	r.c.endRound() // idempotent with the deferred endRound; maintenance needs the round closed
	r.c.maybeMaintain(r.seq)
	return m, nil
}
