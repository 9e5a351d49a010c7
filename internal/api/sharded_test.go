package api

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/fdp"
	"repro/internal/fedora"
)

func newShardedServer(t *testing.T, shards int) (string, *fedora.Controller) {
	t.Helper()
	ctrl, err := fedora.New(fedora.Config{
		NumRows: 1024, Dim: 4, Epsilon: fdp.EpsilonInfinity,
		MaxClientsPerRound: 8, MaxFeaturesPerClient: 8,
		LearningRate: 1, Seed: 3, Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(ctrl).Handler())
	t.Cleanup(srv.Close)
	return srv.URL, ctrl
}

// TestShardedStatusReportsShards: the status and metrics endpoints
// surface the shard count and aggregate device counters.
func TestShardedStatusReportsShards(t *testing.T) {
	base, _ := newShardedServer(t, 4)
	if st := getStatus(t, base); st.Shards != 4 {
		t.Errorf("status shards = %d, want 4", st.Shards)
	}
	info := beginV2(t, base, `{"requests":[[1,600]]}`)
	finishV2(t, base, info.RoundID)
	if st := getStatus(t, base); st.SSDBytesRead == 0 {
		t.Error("aggregated SSD read counter is zero after a round")
	}
	_, data := doReq(t, http.MethodGet, base+"/metrics", "")
	if !strings.Contains(string(data), "fedora_shards 4") {
		t.Errorf("metrics missing fedora_shards gauge:\n%s", data)
	}
}

// TestShardedConcurrentEntryAndGradient hammers one round with parallel
// downloads AND uploads spanning every shard; every operation must
// succeed and every gradient must be delivered.
func TestShardedConcurrentEntryAndGradient(t *testing.T) {
	base, _ := newShardedServer(t, 4)
	// Rows chosen to span all 4 shards of the 1024-row table.
	rows := []uint64{1, 2, 300, 301, 600, 601, 900, 901}
	info := beginV2(t, base, `{"requests":[[1,2,300,301],[600,601,900,901]]}`)
	var wg sync.WaitGroup
	errCh := make(chan error, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			row := rows[g%len(rows)]
			if g%2 == 0 {
				e, err := serveRow(base, info.RoundID, row)
				if err == nil && !e.OK {
					err = fmt.Errorf("row %d not resident", row)
				}
				errCh <- err
			} else {
				delivered, err := submitRow(base, info.RoundID, row)
				if err == nil && !delivered {
					err = fmt.Errorf("row %d gradient dropped", row)
				}
				errCh <- err
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	done := finishV2(t, base, info.RoundID)
	if done.Stats == nil || done.Stats.K != len(rows) {
		t.Errorf("finish stats = %+v, want K = %d", done.Stats, len(rows))
	}
}

// TestShardedErrorPaths: unknown rows, operations after finish, and
// malformed bodies all fail with client errors, sharded or not.
func TestShardedErrorPaths(t *testing.T) {
	base, _ := newShardedServer(t, 4)

	// Begin with a row beyond the table: rejected up front.
	wantErr(t, http.MethodPost, base+"/v2/rounds", `{"requests":[[4096]]}`,
		http.StatusBadRequest, CodeInvalidArgument)

	info := beginV2(t, base, `{"requests":[[1,900]]}`)
	round := base + "/v2/rounds/" + info.RoundID
	// Unknown-but-in-range row: an indistinguishable miss, not an error.
	if e, err := serveRow(base, info.RoundID, 700); err != nil || e.OK {
		t.Errorf("entry for unrequested row: %+v err=%v, want miss", e, err)
	}
	// Unknown row in a gradient: dropped, not delivered.
	if delivered, err := submitRow(base, info.RoundID, 700); err != nil || delivered {
		t.Errorf("gradient for unrequested row: delivered=%v err=%v", delivered, err)
	}
	// Out-of-range row during the round: a client error.
	wantErr(t, http.MethodPost, round+"/entries", `{"rows":[4096]}`,
		http.StatusBadRequest, CodeInvalidArgument)
	// A gradient frame cut short.
	wantErr(t, http.MethodPost, round+"/gradients", gradsBody(1, 1, 1)[:30],
		http.StatusBadRequest, CodeInvalidArgument)

	finishV2(t, base, info.RoundID)
	// Transfers after finish: 409 round_finished. Finish itself is
	// idempotent and replays the recorded outcome.
	wantErr(t, http.MethodPost, round+"/entries", `{"rows":[1]}`,
		http.StatusConflict, CodeRoundFinished)
	wantErr(t, http.MethodPost, round+"/gradients", gradsBody(0, 1, 1),
		http.StatusConflict, CodeRoundFinished)
	if again := finishV2(t, base, info.RoundID); !again.Finished {
		t.Errorf("repeated finish = %+v", again)
	}
}
