package shard

import (
	"errors"
	"fmt"

	"repro/internal/device"
	"repro/internal/tee"
)

// This file is the engine's failure-containment layer: per-shard health
// states (healthy → quarantined → recovered), the trigger that decides
// which errors quarantine a shard instead of failing the round, and the
// checkpoint-section recovery path. A quarantined shard's ORAM state is
// considered suspect (an injected device fault or a TEE auth-tag
// mismatch was observed through its pipeline), so the shard is isolated
// until Recover replays its section from a trusted checkpoint; the
// engine keeps serving rounds over the surviving shards meanwhile.

// ErrShardUnavailable marks work a quarantined (or never-begun) shard
// cannot do: a round no shard can begin or finish, or — in the single-row
// forms above the engine — a row the batch reported Unavailable. It
// arrives wrapped; match it with errors.Is.
var ErrShardUnavailable = errors.New("shard: shard unavailable")

// DefaultTrigger is the quarantine policy used when Config.Trigger is
// nil: injected device faults and TEE integrity violations quarantine
// the shard; anything else (a programming error, an out-of-range
// address) fails the round loudly.
func DefaultTrigger(err error) bool {
	return errors.Is(err, device.ErrInjected) || errors.Is(err, tee.ErrAuthFailed)
}

// trigger applies the configured (or default) quarantine policy.
func (e *Engine) trigger(err error) bool {
	if err == nil {
		return false
	}
	if e.cfg.Trigger != nil {
		return e.cfg.Trigger(err)
	}
	return DefaultTrigger(err)
}

// quarantine isolates shard s, recording the first triggering cause.
func (e *Engine) quarantine(s int, cause error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.quarantined[s] {
		return
	}
	e.quarantined[s] = true
	e.causes[s] = cause
	e.quarantines++
}

// isQuarantined reports shard s's current quarantine flag.
func (e *Engine) isQuarantined(s int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.quarantined[s]
}

// quarantineSnapshot copies the per-shard quarantine flags.
func (e *Engine) quarantineSnapshot() []bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]bool(nil), e.quarantined...)
}

// HealthStatus is the engine-level health rollup.
type HealthStatus string

// The three health states /healthz reports.
const (
	StatusHealthy     HealthStatus = "healthy"     // every shard serving
	StatusDegraded    HealthStatus = "degraded"    // some shards quarantined
	StatusUnavailable HealthStatus = "unavailable" // no shard can serve
)

// ShardHealth is one shard's health detail.
type ShardHealth struct {
	Shard       int    `json:"shard"`
	Rows        uint64 `json:"rows"`
	Quarantined bool   `json:"quarantined"`
	// Cause is the first triggering error, empty while healthy.
	Cause string `json:"cause,omitempty"`
}

// HealthReport is the engine's health snapshot plus lifetime counters.
type HealthReport struct {
	Status HealthStatus  `json:"status"`
	Shards []ShardHealth `json:"shards"`
	// Quarantines / Recoveries count lifetime quarantine and recovery
	// events (a shard can cycle through both repeatedly).
	Quarantines uint64 `json:"quarantines"`
	Recoveries  uint64 `json:"recoveries"`
}

// Health reports per-shard quarantine state and the overall rollup.
func (e *Engine) Health() HealthReport {
	e.mu.Lock()
	defer e.mu.Unlock()
	rep := HealthReport{
		Shards:      make([]ShardHealth, e.cfg.Shards),
		Quarantines: e.quarantines,
		Recoveries:  e.recoveries,
	}
	down := 0
	for i := range rep.Shards {
		rep.Shards[i] = ShardHealth{
			Shard:       e.cfg.Base + i,
			Rows:        Rows(e.cfg.NumRows, e.cfg.Shards, i),
			Quarantined: e.quarantined[i],
		}
		if e.causes[i] != nil {
			rep.Shards[i].Cause = e.causes[i].Error()
		}
		if e.quarantined[i] {
			down++
		}
	}
	switch down {
	case 0:
		rep.Status = StatusHealthy
	case e.cfg.Shards:
		rep.Status = StatusUnavailable
	default:
		rep.Status = StatusDegraded
	}
	return rep
}

// Recover restores every quarantined shard from its section of an
// engine snapshot (the newest durable checkpoint; sections by local
// index, as DecodeContainer returns them) and returns the GLOBAL indices
// recovered. Healthy shards are not touched — only the suspect state is
// replaced — so the survivors keep every round they served since the
// checkpoint, while recovered shards roll back to checkpoint time (the
// documented data-loss window; the FL runner's WAL covers whole-run
// replay, not per-shard deltas). Recovery requires a quiesced engine (no
// round in flight) and is a no-op, (nil, nil), with nothing quarantined.
func (e *Engine) Recover(sections [][]byte) ([]int, error) {
	if err := e.quiesced(); err != nil {
		return nil, err
	}
	var idx []int
	for i, q := range e.quarantineSnapshot() {
		if q {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return nil, nil
	}
	if len(sections) != e.cfg.Shards {
		return nil, fmt.Errorf("shard: %d sections for %d shards", len(sections), e.cfg.Shards)
	}
	var recovered []int
	for _, i := range idx {
		if err := e.restorePart(i, sections[i]); err != nil {
			return recovered, err
		}
		recovered = append(recovered, e.cfg.Base+i)
	}
	return recovered, nil
}
