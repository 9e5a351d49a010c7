package recmodel

import (
	"math"
	"slices"
)

// Pooling selects how the behavioural history is reduced to one vector.
// The paper's models feed embeddings either to an MLP (DLRM-style, mean
// pooling here) or to a "Transformer-like" network (Sec 2.1); attention
// pooling is the minimal transformer-style ingredient: the candidate
// attends over the history, so relevant past items dominate the summary.
type Pooling int

const (
	// PoolMean averages history embeddings (DLRM-style).
	PoolMean Pooling = iota
	// PoolAttention weighs history embeddings by softmax(e_i · c):
	// target-aware attention à la DIN/transformer models.
	PoolAttention
)

// String implements fmt.Stringer.
func (p Pooling) String() string {
	switch p {
	case PoolMean:
		return "mean"
	case PoolAttention:
		return "attention"
	default:
		return "unknown"
	}
}

// attnState caches the attention forward pass for backprop. Its
// slices are the model's scratch, refilled in place on every pass.
type attnState struct {
	rows            [][]float32 // history embeddings present this pass
	scores, weights []float64   // e_i·c and the softmax outputs α_i
	dots            []float64   // gH·e_i
	gRows           []float32   // ∂L/∂e_i, row i at [i·d, (i+1)·d)
	gCand           []float32   // the softmax's share of ∂L/∂c
}

// attentionPool writes h = Σ α_i e_i with α = softmax(e_i·c) into h,
// which must be zero on entry, and caches the pass in st.
func attentionPool(st *attnState, h []float32, rows [][]float32, cand []float32) {
	d := len(cand)
	st.rows, st.scores, st.weights = rows, st.scores[:0], st.weights[:0]
	maxS := math.Inf(-1)
	for _, e := range rows {
		var s float64
		for j := 0; j < d; j++ {
			s += float64(e[j]) * float64(cand[j])
		}
		st.scores = append(st.scores, s)
		if s > maxS {
			maxS = s
		}
	}
	var z float64
	for _, s := range st.scores {
		w := math.Exp(s - maxS)
		st.weights = append(st.weights, w)
		z += w
	}
	weights := st.weights
	for i := range weights {
		weights[i] /= z
	}
	for i, e := range rows {
		w := float32(weights[i])
		for j := 0; j < d; j++ {
			h[j] += w * e[j]
		}
	}
}

// attentionBackprop distributes gH (∂L/∂h) to the history rows and the
// candidate through the softmax, into st.gRows and st.gCand:
//
//	∂L/∂e_i = α_i·gH + (∂L/∂s_i)·c,   ∂L/∂s_i = α_i (gH·e_i − Σ_j α_j gH·e_j)
//	∂L/∂c  += Σ_i (∂L/∂s_i)·e_i
func attentionBackprop(st *attnState, cand []float32, gH []float32) {
	d := len(cand)
	st.gCand = slices.Grow(st.gCand[:0], d)[:d]
	clear(st.gCand)
	st.gRows = slices.Grow(st.gRows[:0], len(st.rows)*d)[:len(st.rows)*d]
	// gH·e_i per row and the α-weighted mean.
	st.dots = st.dots[:0]
	var mean float64
	for i, e := range st.rows {
		var s float64
		for j := 0; j < d; j++ {
			s += float64(gH[j]) * float64(e[j])
		}
		st.dots = append(st.dots, s)
		mean += st.weights[i] * s
	}
	for i, e := range st.rows {
		gs := st.weights[i] * (st.dots[i] - mean) // ∂L/∂s_i
		g := st.gRows[i*d : (i+1)*d]
		for j := 0; j < d; j++ {
			g[j] = float32(st.weights[i])*gH[j] + float32(gs)*cand[j]
			st.gCand[j] += float32(gs) * e[j]
		}
	}
}
