package client

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	"repro/internal/api"
	"repro/internal/fault"
	"repro/internal/fdp"
	"repro/internal/fedora"
	"repro/internal/fl"
)

// newFaultedController builds a 2-shard encrypted controller whose
// shard-1 SSD trips permanently on its first operation (EvictPeriod 1
// makes every access touch the SSD), so round 1 quarantines shard 1.
func newFaultedController(t *testing.T) *fedora.Controller {
	t.Helper()
	plan := &fault.Plan{Seed: 7, Rules: []fault.Rule{{Device: "shard1/ssd", Kind: fault.KindTrip}}}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	ctrl, err := fedora.New(fedora.Config{
		NumRows: 1024, Dim: 4, Epsilon: fdp.EpsilonInfinity,
		MaxClientsPerRound: 8, MaxFeaturesPerClient: 8,
		LearningRate: 1, Seed: 1, Shards: 2, Encrypt: true,
		EvictPeriod: 1,
		WrapDevice:  plan.Wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

// TestSingleRowFormsAgree: the in-process round and the SDK round give
// the same single-row answers for a served row, a row the round never
// loaded (what a sacrificed row looks like) and a row on a quarantined
// shard: ServeEntry reports the quarantined row as a wrapped
// ErrShardUnavailable and SubmitGradient reports it undelivered.
func TestSingleRowFormsAgree(t *testing.T) {
	reqs := [][]uint64{{5, 900}}
	type outcome struct{ ok, unavailable, delivered bool }
	want := []outcome{{true, false, true}, {false, false, false}, {false, true, false}}
	probe := func(name string, begin func() (fl.RoundHandle, error)) {
		t.Helper()
		for round := 1; round <= 2; round++ { // round 1 quarantines shard 1
			r, err := begin()
			if err != nil {
				t.Fatalf("%s: round %d: %v", name, round, err)
			}
			if round == 2 {
				for i, row := range []uint64{5, 7, 900} {
					_, ok, err := r.ServeEntry(row)
					if err != nil && !errors.Is(err, fedora.ErrShardUnavailable) {
						t.Fatalf("%s: ServeEntry(%d): %v", name, row, err)
					}
					got := outcome{ok: ok, unavailable: err != nil}
					if got.delivered, err = r.SubmitGradient(row, make([]float32, 4), 1); err != nil {
						t.Fatalf("%s: SubmitGradient(%d): %v", name, row, err)
					}
					if got != want[i] {
						t.Errorf("%s: row %d = %+v, want %+v", name, row, got, want[i])
					}
				}
			}
			if _, err := r.Finish(); err != nil {
				t.Fatalf("%s: round %d finish: %v", name, round, err)
			}
		}
	}

	local := newFaultedController(t)
	probe("in-process", func() (fl.RoundHandle, error) { return local.BeginRound(reqs) })

	srv := httptest.NewServer(api.NewServer(newFaultedController(t)).Handler())
	defer srv.Close()
	c, err := New(fastConfig(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	o := NewOrchestrator(context.Background(), c)
	probe("sdk", func() (fl.RoundHandle, error) { return o.BeginRound(reqs) })
}
