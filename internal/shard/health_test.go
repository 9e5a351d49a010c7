package shard

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/tee"
)

// injectedErr mimics a wrapped device fault surfacing through an ORAM
// call stack, as the fault injector produces.
var injectedErr = fmt.Errorf("raworam: fetch bucket: %w", device.ErrInjected)

func requests(rows ...uint64) [][]uint64 {
	out := make([][]uint64, len(rows))
	for i, r := range rows {
		out[i] = []uint64{r}
	}
	return out
}

func TestDefaultTrigger(t *testing.T) {
	if !DefaultTrigger(injectedErr) {
		t.Error("wrapped ErrInjected not a trigger")
	}
	if !DefaultTrigger(fmt.Errorf("open bucket: %w", tee.ErrAuthFailed)) {
		t.Error("wrapped ErrAuthFailed not a trigger")
	}
	if DefaultTrigger(errors.New("logic bug")) {
		t.Error("arbitrary error treated as a trigger")
	}
	if DefaultTrigger(nil) {
		t.Error("nil error treated as a trigger")
	}
}

// TestBeginRoundQuarantinesTriggerShard: a shard whose BeginRound fails
// with a quarantine-trigger error is isolated, the round proceeds over
// the survivors, and rows routed to it come back unavailable.
func TestBeginRoundQuarantinesTriggerShard(t *testing.T) {
	e, fakes := newFakeEngine(t, 100, 4, 2)
	fakes[1].beginErr = injectedErr
	r, err := e.BeginRound(requests(10, 30, 60, 90))
	if err != nil {
		t.Fatalf("degraded BeginRound failed: %v", err)
	}
	rep := e.Health()
	if rep.Status != StatusDegraded || rep.Quarantines != 1 {
		t.Fatalf("health = %+v, want degraded with 1 quarantine", rep)
	}
	if !rep.Shards[1].Quarantined || rep.Shards[1].Cause == "" {
		t.Errorf("shard 1 health = %+v", rep.Shards[1])
	}
	// Shard 1 owns rows [25, 50): serving one must report it unavailable.
	res, err := serve(r, 30)
	if err != nil || !res[0].Unavailable {
		t.Fatalf("serve on quarantined shard: %+v err = %v", res[0], err)
	}
	if cause := e.Health().Shards[1].Cause; !strings.Contains(cause, device.ErrInjected.Error()) {
		t.Errorf("unavailable shard lost its cause: %q", cause)
	}
	if ok, err := submit(r, 30); err != nil || ok[0] {
		t.Fatalf("submit on quarantined shard: delivered=%v err = %v", ok[0], err)
	}
	// Rows on live shards keep serving.
	if res, err := serve(r, 10); err != nil || !res[0].OK {
		t.Fatalf("live-shard serve: ok=%v err=%v", res[0].OK, err)
	}
	st, err := r.Finish()
	if err != nil {
		t.Fatalf("degraded Finish failed: %v", err)
	}
	if st.QuarantinedShards != 1 || !st.PerShard[1].Quarantined {
		t.Errorf("stats = QuarantinedShards %d, PerShard[1].Quarantined %v",
			st.QuarantinedShards, st.PerShard[1].Quarantined)
	}
	if fakes[1].aborts == 0 {
		t.Error("quarantined shard's partition was never aborted")
	}
	// The next round simply skips the quarantined shard.
	r2, err := e.BeginRound(requests(10, 60))
	if err != nil {
		t.Fatalf("second degraded round: %v", err)
	}
	if len(fakes[1].rounds) != 0 {
		t.Error("quarantined shard began a round")
	}
	if _, err := r2.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestBeginRoundFatalErrorStillFails: non-trigger errors fail the round
// exactly as before the health layer existed.
func TestBeginRoundFatalErrorStillFails(t *testing.T) {
	e, fakes := newFakeEngine(t, 100, 2, 2)
	boom := errors.New("logic bug")
	fakes[0].beginErr = boom
	if _, err := e.BeginRound(requests(10, 90)); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the fatal error", err)
	}
	if rep := e.Health(); rep.Status != StatusHealthy {
		t.Errorf("fatal error changed health to %v", rep.Status)
	}
}

// TestServeQuarantinesMidRound: a trigger error during ServeEntries
// quarantines the owning shard mid-round; Finish drops its stats and
// aborts it, and the round still completes.
func TestServeQuarantinesMidRound(t *testing.T) {
	e, fakes := newFakeEngine(t, 100, 2, 1)
	r, err := e.BeginRound(requests(10, 90))
	if err != nil {
		t.Fatal(err)
	}
	fakes[1].failOn("serve", injectedErr)
	if res, err := serve(r, 90); err != nil || !res[0].Unavailable {
		t.Fatalf("serve = %+v, err = %v", res[0], err)
	}
	if rep := e.Health(); rep.Status != StatusDegraded {
		t.Fatalf("health = %v mid-round", rep.Status)
	}
	st, err := r.Finish()
	if err != nil {
		t.Fatalf("Finish after mid-round quarantine: %v", err)
	}
	if st.QuarantinedShards != 1 {
		t.Errorf("QuarantinedShards = %d", st.QuarantinedShards)
	}
	if fakes[1].aborts == 0 {
		t.Error("mid-round-quarantined shard not aborted at Finish")
	}
	if fr := fakes[1].rounds[0]; fr.finished {
		t.Error("quarantined shard's Finish (write-back) ran anyway")
	}
}

// TestFinishQuarantinesTriggerShard: a trigger error during a shard's
// write-back quarantines it; that shard's round updates are lost but the
// round succeeds over the survivors.
func TestFinishQuarantinesTriggerShard(t *testing.T) {
	e, fakes := newFakeEngine(t, 100, 2, 2)
	r, err := e.BeginRound(requests(10, 90))
	if err != nil {
		t.Fatal(err)
	}
	fakes[0].failOn("finish", fmt.Errorf("writeback: %w", tee.ErrAuthFailed))
	st, err := r.Finish()
	if err != nil {
		t.Fatalf("Finish = %v, want degraded success", err)
	}
	if st.QuarantinedShards != 1 || !st.PerShard[0].Quarantined {
		t.Errorf("stats = %+v", st)
	}
	if rep := e.Health(); rep.Status != StatusDegraded || !rep.Shards[0].Quarantined {
		t.Errorf("health = %+v", rep)
	}
}

// TestAllShardsQuarantinedUnavailable: with every shard quarantined the
// engine reports unavailable and refuses rounds with the typed error.
func TestAllShardsQuarantinedUnavailable(t *testing.T) {
	e, fakes := newFakeEngine(t, 100, 2, 1)
	fakes[0].beginErr = injectedErr
	fakes[1].beginErr = injectedErr
	if _, err := e.BeginRound(requests(10, 90)); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("err = %v", err)
	}
	if rep := e.Health(); rep.Status != StatusUnavailable || rep.Quarantines != 2 {
		t.Fatalf("health = %+v", rep)
	}
	// The engine is NOT left in-round: a later recovery can proceed.
	if _, err := e.BeginRound(requests(10)); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("second begin: %v (want unavailable, not in-progress)", err)
	}
}

// TestRecoverRestoresQuarantinedSection: Recover replays ONLY the
// quarantined shard's checkpoint section, aborts its half-open state,
// clears the quarantine and bumps the recovery counter; healthy shards
// are untouched.
func TestRecoverRestoresQuarantinedSection(t *testing.T) {
	e, fakes := newFakeEngine(t, 100, 3, 1)
	for i, f := range fakes {
		f.state = []byte{byte('A' + i)}
	}
	snap, err := snapshot(e)
	if err != nil {
		t.Fatal(err)
	}
	// Diverge all shards' live state past the checkpoint.
	for i, f := range fakes {
		f.state = []byte{byte('X' + i)}
	}
	// Quarantine shard 1 via a begin-time trigger fault.
	fakes[1].beginErr = injectedErr
	r, err := e.BeginRound(requests(10, 50, 90))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	abortsBefore := fakes[1].aborts
	recovered, err := recoverFrom(e, snap)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(recovered) != 1 || recovered[0] != 1 {
		t.Fatalf("recovered = %v, want [1]", recovered)
	}
	if fakes[1].aborts <= abortsBefore {
		t.Error("Recover did not abort the quarantined partition")
	}
	if string(fakes[1].state) != "B" {
		t.Errorf("shard 1 state = %q, want checkpoint section %q", fakes[1].state, "B")
	}
	// Healthy shards keep their post-checkpoint state.
	if string(fakes[0].state) != "X" || string(fakes[2].state) != "Z" {
		t.Errorf("healthy shards touched: %q %q", fakes[0].state, fakes[2].state)
	}
	rep := e.Health()
	if rep.Status != StatusHealthy || rep.Recoveries != 1 || rep.Quarantines != 1 {
		t.Fatalf("post-recovery health = %+v", rep)
	}
	// The shard serves again.
	fakes[1].beginErr = nil
	r2, err := e.BeginRound(requests(50))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := serve(r2, 50); err != nil || !res[0].OK {
		t.Fatalf("recovered shard serve: ok=%v err=%v", res[0].OK, err)
	}
	if _, err := r2.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreReturnsQuarantinedShardsToService: a full Restore is a
// restore of every part — each is aborted and replayed, and a
// quarantined shard comes back into service counted as a recovery, as
// RestoreShard and Recover already did.
func TestRestoreReturnsQuarantinedShardsToService(t *testing.T) {
	e, fakes := newFakeEngine(t, 100, 3, 1)
	for i, f := range fakes {
		f.state = []byte{byte('A' + i)}
	}
	snap, err := snapshot(e)
	if err != nil {
		t.Fatal(err)
	}
	fakes[1].beginErr = injectedErr
	r, err := e.BeginRound(requests(10, 50, 90))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if rep := e.Health(); rep.Status != StatusDegraded {
		t.Fatalf("health after fault = %s, want degraded", rep.Status)
	}
	fakes[1].beginErr = nil
	aborts := make([]int, len(fakes))
	for i, f := range fakes {
		aborts[i] = f.aborts
	}

	if err := restore(e, snap); err != nil {
		t.Fatal(err)
	}
	for i, f := range fakes {
		if f.aborts <= aborts[i] {
			t.Errorf("Restore did not abort partition %d", i)
		}
		if want := string(rune('A' + i)); string(f.state) != want {
			t.Errorf("shard %d state = %q, want %q", i, f.state, want)
		}
	}
	rep := e.Health()
	if rep.Status != StatusHealthy || rep.Shards[1].Quarantined || rep.Recoveries != 1 {
		t.Fatalf("health after Restore = %+v, want healthy with one recovery", rep)
	}
	r2, err := e.BeginRound(requests(50))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := serve(r2, 50); err != nil || !res[0].OK || res[0].Unavailable {
		t.Fatalf("restored shard serve: %+v err=%v", res[0], err)
	}
	if _, err := r2.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverGuards: no-op with nothing quarantined, refuses mid-round
// and on geometry mismatch.
func TestRecoverGuards(t *testing.T) {
	e, fakes := newFakeEngine(t, 100, 2, 1)
	snap, err := snapshot(e)
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := recoverFrom(e, snap); err != nil || rec != nil {
		t.Fatalf("healthy Recover = %v, %v; want nil, nil", rec, err)
	}
	fakes[0].failOn("serve", injectedErr)
	r, err := e.BeginRound(requests(10, 90))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = serve(r, 10) // quarantine shard 0 mid-round
	if _, err := recoverFrom(e, snap); !errors.Is(err, ErrRoundOpen) {
		t.Fatalf("mid-round Recover = %v, want ErrRoundOpen", err)
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	// Mismatched geometry: snapshot from a 3-shard engine.
	other, _ := newFakeEngine(t, 100, 3, 1)
	otherSnap, err := snapshot(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recoverFrom(e, otherSnap); err == nil {
		t.Fatal("Recover accepted a snapshot with foreign geometry")
	}
	// The matching snapshot still works.
	if rec, err := recoverFrom(e, snap); err != nil || len(rec) != 1 {
		t.Fatalf("Recover = %v, %v", rec, err)
	}
}

// TestCustomTrigger: Config.Trigger overrides the default policy.
func TestCustomTrigger(t *testing.T) {
	custom := errors.New("custom fault class")
	parts := make([]Partition, 2)
	fakes := make([]*fakePart, 2)
	for i := range parts {
		fakes[i] = &fakePart{id: i}
		parts[i] = fakes[i]
	}
	e, err := NewEngine(Config{
		Shards: 2, NumRows: 100, Workers: 1, Dummy: testDummy,
		Trigger: func(err error) bool { return errors.Is(err, custom) },
	}, parts)
	if err != nil {
		t.Fatal(err)
	}
	fakes[0].beginErr = fmt.Errorf("wrapped: %w", custom)
	if _, err := e.BeginRound(requests(10, 90)); err != nil {
		t.Fatalf("custom trigger not honored: %v", err)
	}
	if rep := e.Health(); !rep.Shards[0].Quarantined {
		t.Error("custom trigger did not quarantine")
	}
}
