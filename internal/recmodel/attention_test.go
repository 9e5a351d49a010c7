package recmodel

import (
	"math"
	"math/rand"
	"testing"
)

func TestAttentionPoolBasics(t *testing.T) {
	// Two history rows; the one aligned with the candidate dominates.
	rows := [][]float32{
		{1, 0},  // aligned with cand
		{-1, 0}, // anti-aligned
	}
	cand := []float32{5, 0}
	var st attnState
	h := make([]float32, 2)
	attentionPool(&st, h, rows, cand)
	if st.weights[0] <= st.weights[1] {
		t.Errorf("weights = %v, aligned row should dominate", st.weights)
	}
	if h[0] <= 0 {
		t.Errorf("pooled h = %v, should lean toward the aligned row", h)
	}
	// Weights sum to 1.
	if s := st.weights[0] + st.weights[1]; math.Abs(s-1) > 1e-12 {
		t.Errorf("weights sum = %v", s)
	}
}

func TestAttentionPoolEmptyHistory(t *testing.T) {
	var st attnState
	h := make([]float32, 2)
	attentionPool(&st, h, nil, []float32{1, 2})
	if h[0] != 0 || h[1] != 0 {
		t.Errorf("h = %v, want zeros", h)
	}
	attentionBackprop(&st, []float32{1, 2}, []float32{1, 1})
	if len(st.gRows) != 0 || st.gCand[0] != 0 {
		t.Errorf("backprop on empty history = %v %v", st.gRows, st.gCand)
	}
}

func TestAttentionUniformWhenScoresEqual(t *testing.T) {
	rows := [][]float32{{1, 0}, {0, 1}}
	cand := []float32{1, 1} // equal dot with both rows
	var st attnState
	attentionPool(&st, make([]float32, 2), rows, cand)
	if math.Abs(st.weights[0]-0.5) > 1e-12 {
		t.Errorf("weights = %v, want uniform", st.weights)
	}
}

// TestAttentionGradientsNumerically checks both the history-row and the
// candidate gradients of the full model against finite differences with
// attention pooling enabled.
func TestAttentionGradientsNumerically(t *testing.T) {
	m := New(Config{Dim: 3, Hidden: 4, UsePrivate: true, LR: 0, Seed: 1, Pooling: PoolAttention})
	base := MapSource{
		0: {0.3, -0.2, 0.1},
		1: {-0.4, 0.2, 0.5},
		2: {-0.1, 0.4, 0.2}, // candidate
	}
	s := Sample{Hist: []uint64{0, 1}, Cand: 2, Label: 1}
	eg := EmbGrad{}
	if _, ok := m.TrainStep(s, base, eg); !ok {
		t.Fatal("dropped")
	}
	const h = 1e-3
	lossWith := func(id uint64, dim int, delta float32) float64 {
		tbl := MapSource{}
		for k, v := range base {
			tbl[k] = append([]float32(nil), v...)
		}
		tbl[id][dim] += delta
		p, _ := m.Predict(s, tbl)
		return float64(logLoss(p, 1))
	}
	for _, id := range []uint64{0, 1, 2} {
		for dim := 0; dim < 3; dim++ {
			numeric := (lossWith(id, dim, h) - lossWith(id, dim, -h)) / (2 * h)
			analytic := float64(eg[id][dim])
			if math.Abs(numeric-analytic) > 1e-2*(1+math.Abs(numeric)) {
				t.Errorf("row %d dim %d: numeric %v vs analytic %v", id, dim, numeric, analytic)
			}
		}
	}
}

func TestAttentionModelLearnsToy(t *testing.T) {
	// Attention should solve a task mean-pooling cannot: the label depends
	// only on whether the history contains an item matching the candidate,
	// and histories carry a distractor that washes out the mean.
	rng := rand.New(rand.NewSource(2))
	const dim = 4
	tbl := MapSource{}
	for i := uint64(0); i < 20; i++ {
		v := make([]float32, dim)
		for j := range v {
			v[j] = (rng.Float32()*2 - 1) * 0.3
		}
		tbl[i] = v
	}
	var samples []Sample
	for n := 0; n < 1500; n++ {
		cand := uint64(rng.Intn(20))
		match := rng.Intn(2) == 0
		hist := []uint64{uint64(rng.Intn(20)), uint64(rng.Intn(20)), uint64(rng.Intn(20))}
		label := float32(0)
		if match {
			hist[rng.Intn(3)] = cand // plant an exact match
			label = 1
		}
		samples = append(samples, Sample{Hist: hist, Cand: cand, Label: label})
	}
	train, test := samples[:1200], samples[1200:]
	m := New(Config{Dim: dim, Hidden: 16, UsePrivate: true, LR: 0.1, Seed: 3, Pooling: PoolAttention})
	for epoch := 0; epoch < 15; epoch++ {
		for _, s := range train {
			eg := EmbGrad{}
			m.TrainStep(s, tbl, eg)
			for id, g := range eg {
				row := tbl[id]
				for i := range row {
					row[i] -= 0.1 * g[i]
				}
			}
		}
	}
	var scores, labels []float32
	for _, s := range test {
		p, _ := m.Predict(s, tbl)
		scores = append(scores, p)
		labels = append(labels, s.Label)
	}
	auc := AUC(scores, labels)
	if auc < 0.75 {
		t.Errorf("attention AUC = %v on a match task, want > 0.75", auc)
	}
}

func TestPoolingString(t *testing.T) {
	if PoolMean.String() != "mean" || PoolAttention.String() != "attention" {
		t.Error("pooling names wrong")
	}
	if Pooling(9).String() != "unknown" {
		t.Error("unknown pooling name")
	}
}
