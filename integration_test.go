package repro

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"testing"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/dataset"
	"repro/internal/fdp"
	"repro/internal/fedora"
	"repro/internal/recmodel"
)

// TestEndToEndFLOverHTTP is the capstone integration test: federated
// training of the recommendation model where every interaction with the
// FEDORA controller — round start, entry downloads, gradient uploads,
// round finish — travels through the HTTP API by way of the SDK
// (internal/client). It verifies the whole
// stack composes: dataset → clients → wire → controller → ε-FDP → RAW
// ORAM → buffer ORAM aggregation → table updates → measurable learning.
func TestEndToEndFLOverHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end training is slow")
	}
	cfg := dataset.MovieLensConfig()
	cfg.NumItems, cfg.NumUsers, cfg.SamplesPerUser = 300, 80, 30
	ds := dataset.Generate(cfg)

	const dim = 8
	ctrl, err := fedora.New(fedora.Config{
		NumRows: ds.NumItems, Dim: dim,
		Epsilon:            fdp.EpsilonInfinity,
		MaxClientsPerRound: 20, MaxFeaturesPerClient: 100,
		LearningRate: 1, Seed: 1,
		InitRow: func(row uint64) []float32 {
			r := rand.New(rand.NewSource(int64(row) + 99))
			v := make([]float32, dim)
			for i := range v {
				v[i] = (r.Float32()*2 - 1) * 0.05
			}
			return v
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(api.NewServer(ctrl).Handler())
	defer srv.Close()
	sdk, err := client.New(client.Config{BaseURL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	global := recmodel.New(recmodel.Config{
		Dim: dim, Hidden: 16, UsePrivate: true, LR: 0.1, Seed: 2,
	})
	rng := rand.New(rand.NewSource(3))

	evaluate := func() float64 {
		cache := recmodel.MapSource{}
		src := recmodel.FuncSource(func(id uint64) ([]float32, bool) {
			if v, ok := cache[id]; ok {
				return v, true
			}
			v, err := ctrl.PeekRow(id)
			if err != nil {
				return nil, false
			}
			cache[id] = v
			return v, true
		})
		var scores, labels []float32
		for _, u := range ds.Users {
			for _, s := range u.Test {
				p, ok := global.Predict(s, src)
				if !ok {
					continue
				}
				scores = append(scores, p)
				labels = append(labels, s.Label)
			}
		}
		return recmodel.AUC(scores, labels)
	}
	before := evaluate()

	const rounds, clientsPerRound = 25, 20
	for round := 0; round < rounds; round++ {
		// Select users and open the round over the wire.
		perm := rng.Perm(len(ds.Users))[:clientsPerRound]
		reqs := make([][]uint64, clientsPerRound)
		users := make([]*dataset.User, clientsPerRound)
		for i, idx := range perm {
			users[i] = &ds.Users[idx]
			reqs[i] = users[i].Rows(100)
		}
		info, err := sdk.BeginRound(ctx, reqs)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}

		type upload struct {
			delta []float32
			n     int
		}
		var mlpUploads []upload
		for i, u := range users {
			// Download over HTTP.
			local := recmodel.MapSource{}
			downloaded := recmodel.MapSource{}
			entries, err := sdk.Entries(ctx, info.RoundID, reqs[i])
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if e.OK {
					local[e.Row] = e.Entry
					downloaded[e.Row] = append([]float32(nil), e.Entry...)
				}
			}
			// Local training.
			localModel := recmodel.New(recmodel.Config{
				Dim: dim, Hidden: 16, UsePrivate: true, LR: 0.1, Seed: int64(u.ID),
			})
			if err := localModel.MLP.SetParams(global.MLP.Params()); err != nil {
				t.Fatal(err)
			}
			trained := 0
			for epoch := 0; epoch < 2; epoch++ {
				for _, s := range u.Train {
					step := recmodel.EmbGrad{}
					if _, ok := localModel.TrainStep(s, local, step); !ok {
						continue
					}
					for row, g := range step {
						vec := local[row]
						for j := range vec {
							vec[j] -= 0.1 * g[j]
						}
					}
					if epoch == 0 {
						trained++
					}
				}
			}
			if trained == 0 {
				continue
			}
			// Upload embedding deltas over HTTP.
			var grads []api.GradientRequest
			for row, down := range downloaded {
				vec := local[row]
				delta := make([]float32, dim)
				changed := false
				for j := range delta {
					delta[j] = down[j] - vec[j]
					if delta[j] != 0 {
						changed = true
					}
				}
				if !changed {
					continue
				}
				grads = append(grads, api.GradientRequest{Row: row, Grad: delta, Samples: trained})
			}
			if _, err := sdk.SubmitGradients(ctx, info.RoundID, grads); err != nil {
				t.Fatal(err)
			}
			// MLP delta (dense FedAvg outside FEDORA).
			gp := global.MLP.Params()
			lp := localModel.MLP.Params()
			delta := make([]float32, len(gp))
			for j := range delta {
				delta[j] = gp[j] - lp[j]
			}
			mlpUploads = append(mlpUploads, upload{delta, trained})
		}
		if _, err := sdk.FinishRound(ctx, info.RoundID); err != nil {
			t.Fatal(err)
		}
		// FedAvg the MLP.
		if len(mlpUploads) > 0 {
			var nTot float32
			for _, up := range mlpUploads {
				nTot += float32(up.n)
			}
			gp := global.MLP.Params()
			for _, up := range mlpUploads {
				w := float32(up.n) / nTot
				for j := range gp {
					gp[j] -= w * up.delta[j]
				}
			}
			if err := global.MLP.SetParams(gp); err != nil {
				t.Fatal(err)
			}
		}
	}

	after := evaluate()
	if after < before+0.03 {
		t.Errorf("no learning over HTTP: AUC %.4f → %.4f", before, after)
	}
	// The ORAM actually moved data: SSD saw reads, and far fewer writes
	// (RAW ORAM evictions only).
	st := ctrl.SSDDevice().Stats()
	if st.BytesRead == 0 {
		t.Error("no SSD reads")
	}
	if st.BytesWritten >= st.BytesRead {
		t.Errorf("SSD writes (%d) not below reads (%d)", st.BytesWritten, st.BytesRead)
	}
}
