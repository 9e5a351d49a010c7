package client

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/fedora"
	"repro/internal/fl"
	"repro/internal/wire"
)

// Orchestrator implements fl.Orchestrator over the v2 HTTP API: the
// trainer's round lifecycle and row traffic go through a Client instead
// of an in-process controller. Because everything that determines the
// model (selection, round seeds, per-client RNG, merge order) lives on
// the trainer side, a remote run produces a bit-identical model to a
// local run with the same fl.Config, provided the server's controller
// was built from that same Config (fl.BuildController).
type Orchestrator struct {
	c   *Client
	ctx context.Context

	mu        sync.Mutex
	lastRound uint64 // round number of the most recent BeginRound
	lastID    string // server round id of the most recent BeginRound
	haveRound bool
}

// NewOrchestrator wraps a Client. ctx spans every request the trainer
// issues; cancel it to abort training mid-round.
func NewOrchestrator(ctx context.Context, c *Client) *Orchestrator {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Orchestrator{c: c, ctx: ctx}
}

// NewRemoteTrainer builds an fl.Trainer that drives a remote FEDORA
// server through c. cfg must match the configuration the server's
// controller was built with (same dataset, dim, privacy cell, seed, …)
// or the run diverges from its local twin; cfg.Shards/Workers only
// shape client-side parallelism here — the server's shard count is its
// own.
func NewRemoteTrainer(cfg fl.Config, c *Client) (*fl.Trainer, error) {
	return fl.NewWithOrchestrator(cfg, NewOrchestrator(context.Background(), c))
}

// remoteRound adapts one server round to fl.RoundHandle.
type remoteRound struct {
	o  *Orchestrator
	id string
}

// BeginRound opens a round on the server.
func (o *Orchestrator) BeginRound(requests [][]uint64) (fl.RoundHandle, error) {
	info, err := o.c.BeginRound(o.ctx, requests)
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	o.lastRound = info.Round
	o.lastID = info.RoundID
	o.haveRound = true
	o.mu.Unlock()
	return &remoteRound{o: o, id: info.RoundID}, nil
}

// StageRound implements fl.RoundStager: the next round's request lists
// post to the stage endpoint of the most recent round, letting the
// server start its ORAM reads before the trainer's BeginRound. Before any round exists there is nothing to stage against;
// that (like any stage error surfaced to the trainer) just means the
// next BeginRound runs cold, so the contract stays best-effort.
func (o *Orchestrator) StageRound(requests [][]uint64) error {
	o.mu.Lock()
	id, ok := o.lastID, o.haveRound
	o.mu.Unlock()
	if !ok {
		return nil
	}
	_, err := o.c.Stage(o.ctx, id, requests, "")
	return err
}

// Round reports the round number the most recent BeginRound opened
// (cached — the trainer derives its SecAgg session key from it right
// after beginning a round), falling back to a status query before any
// round has begun.
func (o *Orchestrator) Round() uint64 {
	o.mu.Lock()
	cached, ok := o.lastRound, o.haveRound
	o.mu.Unlock()
	if ok {
		return cached
	}
	st, err := o.c.Status(o.ctx)
	if err != nil {
		return 0
	}
	return st.Round
}

// EffectiveEpsilon reports the server's configured ε.
func (o *Orchestrator) EffectiveEpsilon() float64 {
	st, err := o.c.Status(o.ctx)
	if err != nil {
		return 0
	}
	eps, err := strconv.ParseFloat(st.EffectiveEpsilon, 64)
	if err != nil {
		return 0
	}
	return eps
}

// PeekRow reads a row through the server's evaluation backdoor.
func (o *Orchestrator) PeekRow(row uint64) ([]float32, error) {
	return o.c.PeekRow(o.ctx, row)
}

func (r *remoteRound) ServeEntry(row uint64) ([]float32, bool, error) {
	return fedora.ServeOne(r.ServeEntries, row)
}

func (r *remoteRound) ServeEntries(rows []uint64) ([]fedora.EntryResult, error) {
	return r.o.c.Entries(r.o.ctx, r.id, rows)
}

func (r *remoteRound) SubmitGradient(row uint64, grad []float32, samples int) (bool, error) {
	return fedora.SubmitOne(r.SubmitGradients, row, grad, samples)
}

func (r *remoteRound) SubmitGradients(grads []fedora.RowGradient) ([]bool, error) {
	return r.o.c.SubmitGradients(r.o.ctx, r.id, grads)
}

// SubmitUpload implements fl.WireRound: one client's opaque wire
// payload ships to the server, which hosts the aggregator — under a
// masked codec neither the transport nor the server ever sees the
// individual update.
func (r *remoteRound) SubmitUpload(batchID string, payload []byte) error {
	return r.o.c.SubmitWireUpload(r.o.ctx, r.id, batchID, payload)
}

// UnmaskAndApply implements fl.WireRound: the unmasking round runs
// server-side and the reconstructed sums are applied there.
func (r *remoteRound) UnmaskAndApply(reveals []wire.Reveal) (fl.WireUnmaskSummary, error) {
	resp, err := r.o.c.Unmask(r.o.ctx, r.id, reveals)
	if err != nil {
		return fl.WireUnmaskSummary{}, err
	}
	return fl.WireUnmaskSummary{
		Rows:        resp.Rows,
		Delivered:   resp.Delivered,
		Bytes:       resp.Bytes,
		Saturations: resp.Saturations,
	}, nil
}

func (r *remoteRound) Finish() (fedora.RoundStats, error) {
	info, err := r.o.c.FinishRound(r.o.ctx, r.id)
	if err != nil {
		return fedora.RoundStats{}, err
	}
	if info.Stats == nil {
		return fedora.RoundStats{}, fmt.Errorf("client: round %s finished without stats", r.id)
	}
	return info.Stats.Stats()
}
