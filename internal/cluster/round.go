package cluster

import (
	"context"
	"errors"
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

// drop marks node n's local round unusable after a failed member call
// and fences the node — for a transport error, a 5xx or a lost round. Two
// replies come from a healthy member instead. stale_epoch latches the
// deposed flag without fencing: the member is owned by a newer
// coordinator — fencing it would poison the successor's view via shared
// state, and this coordinator must simply stand down. invalid_argument
// refuses the batch, not the caller: the member's round stays usable and
// the error is returned for the trainer.
func (r *Round) drop(n int, err error) error {
	switch memberCode(err) {
	case api.CodeInvalidArgument:
		return err
	case api.CodeStaleEpoch:
		r.c.deposed.Store(true)
	default:
		r.c.fence(n, err)
	}
	r.mu.Lock()
	r.begun[n] = false
	r.mu.Unlock()
	return nil
}

// roundID returns the server round ID node n's local round runs under.
func (r *Round) roundID(n int) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ids[n]
}

// group sorts batch positions [0, n) by the member owning each row. It
// runs before the WAL or any member sees the batch and refuses the whole
// batch for a row outside the table or a vector that is not Dim wide
// (width < 0: the position carries none).
func (r *Round) group(n int, at func(i int) (row uint64, width int)) ([][]int, error) {
	idxByNode := make([][]int, len(r.c.members))
	for i := 0; i < n; i++ {
		row, width := at(i)
		if row >= r.c.numRows {
			return nil, fmt.Errorf("cluster: row %d out of range %d", row, r.c.numRows)
		}
		if width >= 0 && width != r.c.norm.Dim {
			return nil, fmt.Errorf("cluster: row %d carries %d values, table dim is %d", row, width, r.c.norm.Dim)
		}
		node := r.c.nodeOf[shard.ShardOf(r.c.numRows, r.c.shards, row)]
		idxByNode[node] = append(idxByNode[node], i)
	}
	return idxByNode, nil
}

// fanOut runs call, in parallel, on every live member that owns part of
// the batch, handing it the member's round ID and batch positions. A
// member whose call fails is dropped; ok marks the members call
// succeeded on, err joins the failures drop blames on the batch.
func (r *Round) fanOut(op string, idxByNode [][]int, call func(m *member, id string, idxs []int) error) (ok []bool, err error) {
	ok = make([]bool, len(r.c.members))
	errs := make([]error, len(r.c.members))
	var wg sync.WaitGroup
	for n, idxs := range idxByNode {
		if len(idxs) == 0 || !r.live(n) {
			continue
		}
		wg.Add(1)
		go func(n int, idxs []int) {
			defer wg.Done()
			if err := call(r.c.members[n], r.roundID(n), idxs); err != nil {
				errs[n] = r.drop(n, fmt.Errorf("%s round %d: %w", op, r.seq, err))
				return
			}
			ok[n] = true
		}(n, idxs)
	}
	wg.Wait()
	return ok, errors.Join(errs...)
}

// finished reports whether Finish has closed the round.
func (r *Round) finished() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done
}

// ServeEntries batches step-④ lookups: rows group by owning member
// (input order preserved within each group), fan out in parallel, and
// scatter back in input order. Rows owned by a fenced or round-lost
// member come back Unavailable, exactly like rows on a quarantined
// shard in the single-process engine.
func (r *Round) ServeEntries(rows []uint64) ([]fedora.EntryResult, error) {
	if r.finished() {
		return nil, fedora.ErrRoundFinished
	}
	idxByNode, err := r.group(len(rows), func(i int) (uint64, int) { return rows[i], -1 })
	if err != nil {
		return nil, err
	}
	results := make([]fedora.EntryResult, len(rows))
	for i, row := range rows {
		results[i] = fedora.EntryResult{Row: row, Unavailable: true}
	}
	_, err = r.fanOut("serve entries", idxByNode, func(m *member, id string, idxs []int) error {
		local := make([]uint64, len(idxs))
		for k, i := range idxs {
			local[k] = rows[i] - m.rowBase
		}
		res, err := m.cli.Entries(context.Background(), id, local)
		if err != nil {
			return err
		}
		for k, i := range idxs {
			results[i] = res[k]
			results[i].Row = rows[i]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
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
	if r.finished() {
		return nil, fedora.ErrRoundFinished
	}
	idxByNode, err := r.group(len(grads), func(i int) (uint64, int) { return grads[i].Row, len(grads[i].Grad) })
	if err != nil {
		return nil, err
	}
	// Durability point: gradients are WAL'd before any member applies
	// them, so replay reapplies exactly what the members saw.
	opIdx, err := r.c.logGrads(r.seq, grads)
	if err != nil {
		return nil, err
	}
	delivered := make([]bool, len(grads))
	applied, batchErr := r.fanOut("submit gradients", idxByNode, func(m *member, id string, idxs []int) error {
		local := make([]fedora.RowGradient, len(idxs))
		for k, i := range idxs {
			local[k] = grads[i]
			local[k].Row -= m.rowBase
		}
		ok, err := m.cli.SubmitGradients(context.Background(), id, local)
		if err != nil {
			return err
		}
		for k, i := range idxs {
			delivered[i] = ok[k]
		}
		return nil
	})
	// Durability point: record which nodes the batch actually landed on.
	// Without it, replay would land a bounced batch on the restored
	// member AND the trainer's logged resubmission — double-applied.
	if err := r.c.logApplied(r.seq, opIdx, applied); err != nil {
		return nil, err
	}
	return delivered, batchErr
}

// SubmitAggregates fans already-summed row updates out to the owning
// members — the coordinator-side application step of a wire upload
// round. The coordinator hosts the wire aggregator (in its api.Server
// wrapper) and only ever handles masked payloads and the final sums;
// members receive the sums as an aggregate row frame, translated to
// member-local row indices like every other fan-out. Rows on lost
// members report delivered=false, mirroring quarantined shards.
func (r *Round) SubmitAggregates(aggs []fedora.RowAggregate) ([]bool, error) {
	if r.finished() {
		return nil, fedora.ErrRoundFinished
	}
	idxByNode, err := r.group(len(aggs), func(i int) (uint64, int) { return aggs[i].Row, len(aggs[i].Sum) })
	if err != nil {
		return nil, err
	}
	// Durability points, mirroring SubmitGradients.
	opIdx, err := r.c.logAggs(r.seq, aggs)
	if err != nil {
		return nil, err
	}
	delivered := make([]bool, len(aggs))
	applied, batchErr := r.fanOut("submit aggregates", idxByNode, func(m *member, id string, idxs []int) error {
		local := make([]fedora.RowAggregate, len(idxs))
		for k, i := range idxs {
			local[k] = aggs[i]
			local[k].Row -= m.rowBase
		}
		ok, err := m.cli.SubmitAggregates(context.Background(), id, local)
		if err != nil {
			return err
		}
		for k, i := range idxs {
			delivered[i] = ok[k]
		}
		return nil
	})
	if err := r.c.logApplied(r.seq, opIdx, applied); err != nil {
		return nil, err
	}
	return delivered, batchErr
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
