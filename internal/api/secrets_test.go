package api

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/fdp"
	"repro/internal/fedora"
	"repro/internal/wire"
)

// secretNames are the JSON keys and metric-name fragments that must never
// appear in anything this package serves: the counts ε-FDP noises
// (k_union, the dummy/lost split, cross-chunk duplicates) and the
// prefetch counters that sum to k_sampled − dummy. internal/cluster walks
// a coordinator for the same list.
var secretNames = []string{
	"k_union", "dummy", "lost", "cross_chunk_dup",
	"prefetch_hits", "prefetch_wasted", "staged_rows",
}

// phaseDurationNames are the JSON-key fragments of per-phase durations,
// which must not leave the controller either: a round reports its
// modelled total_overhead and nothing finer. internal/cluster walks a
// coordinator for the same list.
var phaseDurationNames = []string{"_wall_ns", "evict_ns"}

// TestNoSecretStatsOverAPI runs sharded, prefetching rounds with a
// masked-sparse upload and checks every reply body and /metrics for the
// forbidden names.
func TestNoSecretStatsOverAPI(t *testing.T) {
	ctrl, err := fedora.New(fedora.Config{
		NumRows: 1024, Dim: 4, Epsilon: fdp.EpsilonInfinity,
		MaxClientsPerRound: 8, MaxFeaturesPerClient: 8,
		LearningRate: 1, Seed: 1, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(ctrl).Handler())
	defer srv.Close()

	// call performs one request, requires a 2xx and scans the reply.
	call := func(method, path, body string) {
		t.Helper()
		status, data := doReq(t, method, srv.URL+path, body)
		if status/100 != 2 {
			t.Fatalf("%s %s: status %d body %s", method, path, status, data)
		}
		for _, names := range [][]string{secretNames, phaseDurationNames} {
			for _, name := range names {
				if strings.Contains(string(data), name) {
					t.Errorf("%s %s exposes %q:\n%s", method, path, name, data)
				}
			}
		}
	}

	r1 := beginV2(t, srv.URL, `{"requests":[[5,9],[9,700]]}`)
	round := "/v2/rounds/" + r1.RoundID
	call(http.MethodGet, "/v2/status", "")
	call(http.MethodGet, round, "")
	call(http.MethodPost, round+"/entries", `{"rows":[5,9,700]}`)

	plan, err := wire.NewPlan(wire.Params{
		Codec: wire.CodecMaskedSparse, NumRows: 1024, Dim: 4,
		Round: r1.Round, Roster: 2,
		SessionKey: wire.DeriveSessionKey(1, r1.Round),
	}, []uint64{5, 9, 700})
	if err != nil {
		t.Fatal(err)
	}
	one := []float32{1, 1, 1, 1}
	for i, rows := range [][]uint64{{5, 9}, {9, 700}} {
		payload, _, err := plan.Encode(i, rows, [][]float32{one, one}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if status, data := wirePost(t, srv.URL+round+"/gradients", "", payload); status != http.StatusOK {
			t.Fatalf("upload %d: status %d body %s", i, status, data)
		}
	}
	call(http.MethodPost, round+"/unmask", `{"reveals":[]}`)
	call(http.MethodPost, round+"/finish", "")
	call(http.MethodPost, round+"/stage", `{"requests":[[7,900]]}`)

	// Round 2 adopts the staged plan, so its stats are a prefetched
	// round's and the controller has staged-row counters to (not) report.
	r2 := beginV2(t, srv.URL, `{"requests":[[7,900]]}`)
	round = "/v2/rounds/" + r2.RoundID
	call(http.MethodPost, round+"/entries", `{"rows":[7,900]}`)
	call(http.MethodPost, round+"/finish", "")
	if rep := ctrl.PrefetchReport(); rep.Hits == 0 {
		t.Fatalf("round 2 did not prefetch (%+v): the walk would not see prefetch stats", rep)
	}
	call(http.MethodGet, round, "")
	call(http.MethodGet, "/v2/status", "")
	call(http.MethodGet, "/healthz", "")
	call(http.MethodGet, "/metrics", "")
}
