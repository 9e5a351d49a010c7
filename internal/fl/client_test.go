package fl

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fedora"
	"repro/internal/recmodel"
)

// stubRound serves one client's preallocated entries, every row
// resident; nothing else is implemented.
type stubRound struct{ res []fedora.EntryResult }

var errStub = errors.New("stub round: not implemented")

func (r *stubRound) ServeEntries([]uint64) ([]fedora.EntryResult, error) { return r.res, nil }
func (r *stubRound) ServeEntry(uint64) ([]float32, bool, error)          { return nil, false, errStub }
func (r *stubRound) SubmitGradient(uint64, []float32, int) (bool, error) { return false, errStub }
func (r *stubRound) SubmitGradients([]fedora.RowGradient) ([]bool, error) {
	return nil, errStub
}
func (r *stubRound) Finish() (fedora.RoundStats, error) { return fedora.RoundStats{}, errStub }

// stubClient picks the user with the longest request list and a round
// that serves all of it at the rows' initial values.
func stubClient(tr *Trainer) (*dataset.User, []uint64, *stubRound) {
	users := tr.cfg.Dataset.Users
	u := &users[0]
	for i := range users {
		if len(users[i].Rows(tr.cfg.MaxFeaturesPerClient)) > len(u.Rows(tr.cfg.MaxFeaturesPerClient)) {
			u = &users[i]
		}
	}
	req := u.Rows(tr.cfg.MaxFeaturesPerClient)
	round := &stubRound{}
	for _, row := range req {
		round.res = append(round.res, fedora.EntryResult{Row: row, Entry: tr.initRow(row), OK: true})
	}
	return u, req, round
}

// TestClientStepAllocs: once its worker scratch and upload buffer are
// warm, a client's download, local SGD and deltas allocate nothing.
func TestClientStepAllocs(t *testing.T) {
	for name, edit := range map[string]func(*Config){
		"mean": func(*Config) {},
		"attention-dropout-dense": func(c *Config) {
			c.Pooling, c.Dropout, c.DropoutProb, c.DenseIn = recmodel.PoolAttention, 0.5, 1e-9, 2
		},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := Config{Epsilon: 1, UsePrivate: true, Seed: 31, LocalEpochs: 2}
			edit(&cfg)
			tr := newTrainer(t, cfg)
			u, req, round := stubClient(tr)
			step := func() {
				trained, err := tr.TrainClient(round, u, req, 5)
				if err != nil || trained == 0 {
					t.Fatalf("client step: trained %d, err %v", trained, err)
				}
			}
			step()
			if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
				t.Errorf("client step allocates %v times", allocs)
			}
		})
	}
}

// TestScratchPoisoning: every reused buffer is overwritten with NaN as
// soon as its contents are meant to be dead (worker scratch between
// clients, upload deltas once submitted or encoded), and every golden
// cell still lands on its golden bytes: no result aliases scratch, and
// neither the controller nor the wire plane retains an upload buffer.
func TestScratchPoisoning(t *testing.T) {
	deadHook = poison
	defer func() { deadHook = nil }()
	for _, tc := range goldenTrainerCells {
		t.Run(tc.name, func(t *testing.T) {
			cfg := goldenCellConfig()
			tc.edit(&cfg)
			_, snap := runGoldenCell(t, cfg)
			if got := snapshotSHA(snap); got != tc.snapshot {
				t.Errorf("poisoned run: snapshot sha256 = %s, want %s", got, tc.snapshot)
			}
		})
	}
}

// poison overwrites a dead buffer with NaN.
func poison(buf any) {
	switch b := buf.(type) {
	case *clientScratch:
		b.model.PoisonScratch()
		for _, v := range [][]float32{b.ws.local, b.ws.pristine, b.ws.grad} {
			poison(v)
		}
	case []float32:
		for i := range b {
			b[i] = float32(math.NaN())
		}
	default:
		panic(fmt.Sprintf("poison: unexpected %T", buf))
	}
}

// TestWorkerCountSnapshotBytes: the unsharded cell's trainer snapshot
// is the same bytes at Workers 1, 2 and GOMAXPROCS (the goldens are
// recorded at 2).
func TestWorkerCountSnapshotBytes(t *testing.T) {
	workers := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 2 {
		workers = append(workers, n)
	}
	for _, tc := range goldenTrainerCells[:2] { // local, dropout
		for _, w := range workers {
			cfg := goldenCellConfig()
			tc.edit(&cfg)
			cfg.Workers = w
			_, snap := runGoldenCell(t, cfg)
			if got := snapshotSHA(snap); got != tc.snapshot {
				t.Errorf("%s at Workers=%d: snapshot sha256 = %s, want %s", tc.name, w, got, tc.snapshot)
			}
		}
	}
}

func snapshotSHA(snap []byte) string {
	sum := sha256.Sum256(snap)
	return hex.EncodeToString(sum[:])
}

// TestDropoutMasksDifferAcrossRounds: a client's dropout masks come from
// its (round seed, client index) stream, so one user on the same rows
// and the same global model trains differently in two rounds — and the
// same way when a round is replayed.
func TestDropoutMasksDifferAcrossRounds(t *testing.T) {
	tr := newTrainer(t, Config{Epsilon: 1, UsePrivate: true, Seed: 32, Dropout: 0.5})
	u, req, round := stubClient(tr)
	mlpDelta := func(roundSeed int64) []float32 {
		if _, err := tr.TrainClient(round, u, req, roundSeed); err != nil {
			t.Fatal(err)
		}
		return slices.Clone(tr.uploads[0].mlpDelta)
	}
	r1, r2, replay := mlpDelta(1), mlpDelta(2), mlpDelta(1)
	if !slices.Equal(r1, replay) {
		t.Error("replaying a round trained the client differently")
	}
	if slices.Equal(r1, r2) {
		t.Error("the user dropped the same hidden units in two different rounds")
	}
}
