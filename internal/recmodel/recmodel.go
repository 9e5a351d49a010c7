// Package recmodel implements a DLRM-style recommendation model
// (Naumov et al. — the model the paper's accuracy study trains via the
// RF2 simulator): an item embedding table feeding a small MLP through a
// dot-product feature interaction, trained with log-loss for
// click/like prediction and evaluated with ROC-AUC.
//
// Architecture (per sample):
//
//	h = pool(E[hist...])             // private history (mean or attention)
//	c = E[cand]                      // candidate item
//	x = [h ‖ c ‖ h·c ‖ dense]        // DLRM dot interaction + dense feats
//	ŷ = σ(MLP(x))
//
// In the "pub" configuration (training without private features, the
// paper's Table 1 baseline rows) the history pooling is zeroed, so the
// model can only learn per-item signals.
//
// Everything is plain float32 slices with hand-written backprop — the FL
// clients of internal/fl run this on "their device".
//
// Paper mapping: the model of the Sec 6.4 accuracy study (Sec 2.1's
// DLRM-style architecture). Key invariants: TrainStep mutates only the
// model and the caller's GradSink — never a shared table — which is what
// lets FL clients train concurrently, one Model each; a Model owns its
// passes' scratch, so it belongs to one goroutine and allocates nothing
// per step; and a model is deterministic in its Config.Seed.
package recmodel

import (
	"errors"
	"math"
	"math/rand"
	"sort"
)

// Sample is one training/test example.
type Sample struct {
	// Hist is the user's (private) behavioural history: item row IDs.
	Hist []uint64
	// Cand is the candidate item whose interaction is predicted.
	Cand uint64
	// Dense holds the naturally vector-valued features (Sec 2.1: "the
	// translated vectors, along with dense features, go through an MLP").
	// Its length must equal Config.DenseIn; nil means all-zero.
	Dense []float32
	// Label is 1 for a positive interaction, 0 otherwise.
	Label float32
}

// Config parameterizes the model.
type Config struct {
	// Dim is the embedding dimension.
	Dim int
	// Hidden is the MLP hidden width.
	Hidden int
	// UsePrivate enables the history tower; false reproduces "pub".
	UsePrivate bool
	// LR is the local SGD learning rate for the MLP.
	LR float32
	// Seed initializes the MLP weights.
	Seed int64
	// Dropout is the keep-complement probability applied to the hidden
	// layer during training (the paper adds p=0.5 dropout for MovieLens).
	Dropout float32
	// Pooling reduces the history to one vector: PoolMean (DLRM-style,
	// default) or PoolAttention (target-aware, transformer-style).
	Pooling Pooling
	// DenseIn is the number of dense features appended to the MLP input
	// (0 = none).
	DenseIn int
	// L2 adds weight decay to the MLP and to the embedding rows a sample
	// touches. The paper's setup disables it for embeddings ("it becomes
	// impractical for large tables" — a true ℓ2 pass would touch every
	// row, defeating the partial-download design); this sparse variant
	// decays only accessed rows, the standard large-table compromise.
	L2 float32
}

// MLP is the dense part of the model: one ReLU hidden layer + sigmoid
// output. It is small (the paper's premise) and trained with ordinary
// FedAvg outside the embedding machinery.
type MLP struct {
	In, Hidden int
	W1         []float32 // Hidden × In
	B1         []float32 // Hidden
	W2         []float32 // Hidden
	B2         float32
}

// NewMLP initializes with scaled uniform weights.
func NewMLP(in, hidden int, rng *rand.Rand) *MLP {
	m := &MLP{
		In: in, Hidden: hidden,
		W1: make([]float32, hidden*in),
		B1: make([]float32, hidden),
		W2: make([]float32, hidden),
	}
	s1 := float32(1 / math.Sqrt(float64(in)))
	for i := range m.W1 {
		m.W1[i] = (rng.Float32()*2 - 1) * s1
	}
	s2 := float32(1 / math.Sqrt(float64(hidden)))
	for i := range m.W2 {
		m.W2[i] = (rng.Float32()*2 - 1) * s2
	}
	return m
}

// Clone deep-copies the MLP (clients train local copies).
func (m *MLP) Clone() *MLP {
	c := &MLP{In: m.In, Hidden: m.Hidden, B2: m.B2}
	c.W1 = append([]float32(nil), m.W1...)
	c.B1 = append([]float32(nil), m.B1...)
	c.W2 = append([]float32(nil), m.W2...)
	return c
}

// Params returns a flat copy of all parameters for FedAvg deltas.
func (m *MLP) Params() []float32 {
	return m.AppendParams(make([]float32, 0, len(m.W1)+len(m.B1)+len(m.W2)+1))
}

// AppendParams appends the flat parameter vector Params returns to dst.
func (m *MLP) AppendParams(dst []float32) []float32 {
	dst = append(dst, m.W1...)
	dst = append(dst, m.B1...)
	dst = append(dst, m.W2...)
	return append(dst, m.B2)
}

// SetParams writes a flat parameter vector back.
func (m *MLP) SetParams(p []float32) error {
	want := len(m.W1) + len(m.B1) + len(m.W2) + 1
	if len(p) != want {
		return errors.New("recmodel: parameter length mismatch")
	}
	copy(m.W1, p[:len(m.W1)])
	p = p[len(m.W1):]
	copy(m.B1, p[:len(m.B1)])
	p = p[len(m.B1):]
	copy(m.W2, p[:len(m.W2)])
	m.B2 = p[len(m.W2)]
	return nil
}

// Model couples the MLP with embedding lookups supplied by the caller
// (in FL, the rows the client downloaded through FEDORA). It owns the
// scratch of its forward and backward passes, so a Model belongs to
// one goroutine at a time.
type Model struct {
	cfg Config
	MLP *MLP
	rng *rand.Rand

	st                forwardState
	gx, gH, gC, g, rg []float32 // backward scratch
}

// New creates a model.
func New(cfg Config) *Model {
	if cfg.Dim <= 0 {
		panic("recmodel: Dim must be positive")
	}
	if cfg.Hidden <= 0 {
		cfg.Hidden = 32
	}
	if cfg.LR == 0 {
		cfg.LR = 0.1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d, in := cfg.Dim, 2*cfg.Dim+1+cfg.DenseIn
	return &Model{
		cfg: cfg,
		MLP: NewMLP(in, cfg.Hidden, rng),
		rng: rng,
		st: forwardState{
			h: make([]float32, d), x: make([]float32, in), hid: make([]float32, cfg.Hidden),
		},
		gx: make([]float32, in),
		gH: make([]float32, d), gC: make([]float32, d), g: make([]float32, d), rg: make([]float32, d),
	}
}

// Reseed restarts the model's dropout stream from seed.
func (m *Model) Reseed(seed int64) { m.rng.Seed(seed) }

// PoisonScratch fills the model's scratch with NaN: tests call it
// between steps to prove no result of Predict or TrainStep aliases it.
func (m *Model) PoisonScratch() {
	nan := float32(math.NaN())
	for _, v := range [][]float32{m.st.h, m.st.x, m.st.hid, m.gx, m.gH, m.gC, m.g, m.rg, m.st.attn.gRows, m.st.attn.gCand} {
		for i := range v {
			v[i] = nan
		}
	}
	for _, v := range [][]float64{m.st.attn.scores, m.st.attn.weights, m.st.attn.dots} {
		for i := range v {
			v[i] = math.NaN()
		}
	}
}

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// EmbeddingSource supplies embedding rows by ID. Rows that are
// unavailable (lost to the ε-FDP mechanism) return ok = false.
type EmbeddingSource interface {
	Row(id uint64) (vec []float32, ok bool)
}

// MapSource is an EmbeddingSource over a map (the client's downloaded
// working set, or a whole table in centralized evaluation).
type MapSource map[uint64][]float32

// Row implements EmbeddingSource.
func (s MapSource) Row(id uint64) ([]float32, bool) {
	v, ok := s[id]
	return v, ok
}

// FuncSource adapts a lookup function.
type FuncSource func(id uint64) ([]float32, bool)

// Row implements EmbeddingSource.
func (s FuncSource) Row(id uint64) ([]float32, bool) { return s(id) }

// forwardState caches activations for backprop. It is the model's
// scratch: every pass overwrites it.
type forwardState struct {
	h, c, x []float32
	hid     []float32   // post-ReLU hidden
	dropout bool        // dropout was applied (training only)
	p       float32     // prediction
	nHist   int         // history rows actually available
	rows    [][]float32 // present history rows, in pooling order
	histIDs []uint64    // their IDs
	attn    attnState
}

// forward runs the network. Missing candidate row fails (caller drops
// the sample); missing history rows are skipped from the pool.
func (m *Model) forward(s Sample, src EmbeddingSource, train bool) (*forwardState, bool) {
	d := m.cfg.Dim
	st := &m.st
	cand, ok := src.Row(s.Cand)
	if !ok {
		return nil, false
	}
	clear(st.h)
	clear(st.x)
	st.c = cand
	st.rows, st.histIDs, st.nHist = st.rows[:0], st.histIDs[:0], 0
	if m.cfg.UsePrivate {
		for _, h := range s.Hist {
			row, ok := src.Row(h)
			if !ok {
				continue
			}
			st.rows = append(st.rows, row)
			st.histIDs = append(st.histIDs, h)
		}
		st.nHist = len(st.rows)
		switch m.cfg.Pooling {
		case PoolAttention:
			attentionPool(&st.attn, st.h, st.rows, cand)
		default:
			for _, row := range st.rows {
				for i := 0; i < d; i++ {
					st.h[i] += row[i]
				}
			}
			if st.nHist > 0 {
				inv := 1 / float32(st.nHist)
				for i := range st.h {
					st.h[i] *= inv
				}
			}
		}
	}
	var dot float32
	for i := 0; i < d; i++ {
		st.x[i] = st.h[i]
		st.x[d+i] = cand[i]
		dot += st.h[i] * cand[i]
	}
	st.x[2*d] = dot
	if m.cfg.DenseIn > 0 {
		if s.Dense != nil && len(s.Dense) != m.cfg.DenseIn {
			return nil, false // malformed sample: wrong dense width
		}
		copy(st.x[2*d+1:], s.Dense) // nil leaves zeros
	}

	// MLP forward.
	mlp := m.MLP
	st.dropout = train && m.cfg.Dropout > 0
	var out float32 = mlp.B2
	for j := 0; j < mlp.Hidden; j++ {
		var a float32 = mlp.B1[j]
		wrow := mlp.W1[j*mlp.In : (j+1)*mlp.In]
		for i, xi := range st.x {
			a += wrow[i] * xi
		}
		if a < 0 {
			a = 0
		}
		if st.dropout {
			if m.rng.Float32() < m.cfg.Dropout {
				a = 0
			} else {
				a /= 1 - m.cfg.Dropout // inverted dropout
			}
		}
		st.hid[j] = a
		out += mlp.W2[j] * a
	}
	st.p = sigmoid(out)
	return st, true
}

// Predict returns the model's probability for a sample; ok is false when
// the candidate row is unavailable.
func (m *Model) Predict(s Sample, src EmbeddingSource) (float32, bool) {
	st, ok := m.forward(s, src, false)
	if !ok {
		return 0, false
	}
	return st.p, true
}

// GradSink receives a training step's embedding-row gradients, in the
// order the backward pass produces them. g is the model's scratch: Add
// folds or copies it and never retains it.
type GradSink interface {
	Add(id uint64, g []float32)
}

// EmbGrad is a GradSink that accumulates per-row gradients in a map.
type EmbGrad map[uint64][]float32

// Add accumulates g into the row's gradient slot.
func (eg EmbGrad) Add(id uint64, g []float32) {
	slot, ok := eg[id]
	if !ok {
		slot = make([]float32, len(g))
		eg[id] = slot
	}
	for i := range g {
		slot[i] += g[i]
	}
}

// TrainStep runs one SGD step on a sample: it updates the MLP weights in
// place and hands the embedding-row gradients to sink (the caller
// applies or uploads them). Returns the log-loss, or ok=false if the
// sample had to be dropped (candidate row unavailable).
func (m *Model) TrainStep(s Sample, src EmbeddingSource, sink GradSink) (loss float32, ok bool) {
	st, ok := m.forward(s, src, true)
	if !ok {
		return 0, false
	}
	d := m.cfg.Dim
	mlp := m.MLP
	// dL/dout for sigmoid + logloss.
	gOut := st.p - s.Label

	// Backprop to hidden and input.
	gx := m.gx
	clear(gx)
	lr := m.cfg.LR
	gB2 := gOut
	l2 := m.cfg.L2
	for j := 0; j < mlp.Hidden; j++ {
		gHid := gOut * mlp.W2[j]
		gW2 := gOut * st.hid[j]
		if st.hid[j] > 0 { // ReLU (and dropout) pass-through
			// With inverted dropout, hid = relu(a)/keep, so the gradient
			// w.r.t. the pre-activation a picks up a 1/keep factor.
			gA := gHid
			if st.dropout {
				gA /= 1 - m.cfg.Dropout
			}
			wrow := mlp.W1[j*mlp.In : (j+1)*mlp.In]
			for i := range gx {
				gx[i] += gA * wrow[i]
			}
			for i, xi := range st.x {
				wrow[i] -= lr * (gA*xi + l2*wrow[i])
			}
			mlp.B1[j] -= lr * gA
		}
		mlp.W2[j] -= lr * (gW2 + l2*mlp.W2[j])
	}
	mlp.B2 -= lr * gB2

	// Embedding gradients via the concat halves and the interaction term.
	gH, gC := m.gH, m.gC
	for i := 0; i < d; i++ {
		gH[i] = gx[i] + gx[2*d]*st.c[i]
		gC[i] = gx[d+i] + gx[2*d]*st.h[i]
	}
	if m.cfg.UsePrivate && st.nHist > 0 {
		switch m.cfg.Pooling {
		case PoolAttention:
			a := &st.attn
			attentionBackprop(a, st.c, gH)
			for i, id := range st.histIDs {
				sink.Add(id, a.gRows[i*d:(i+1)*d])
			}
			for i := range gC {
				gC[i] += a.gCand[i]
			}
		default:
			inv := 1 / float32(st.nHist)
			g := m.g
			for i := range g {
				g[i] = gH[i] * inv
			}
			for _, id := range st.histIDs {
				sink.Add(id, g)
			}
		}
	}
	if l2 > 0 {
		// Sparse weight decay on the touched rows.
		reg := m.rg
		if cand, ok := src.Row(s.Cand); ok {
			for i := range reg {
				reg[i] = l2 * cand[i]
			}
			sink.Add(s.Cand, reg)
		}
		for _, id := range st.histIDs {
			if row, ok := src.Row(id); ok {
				for i := range reg {
					reg[i] = l2 * row[i]
				}
				sink.Add(id, reg)
			}
		}
	}
	sink.Add(s.Cand, gC)
	return logLoss(st.p, s.Label), true
}

func sigmoid(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

func logLoss(p, y float32) float32 {
	const eps = 1e-7
	pp := float64(p)
	if pp < eps {
		pp = eps
	}
	if pp > 1-eps {
		pp = 1 - eps
	}
	if y > 0.5 {
		return float32(-math.Log(pp))
	}
	return float32(-math.Log(1 - pp))
}

// AUC computes the ROC area under the curve from (score, label) pairs
// via the rank statistic (Mann–Whitney U), handling ties by midranks.
func AUC(scores []float32, labels []float32) float64 {
	n := len(scores)
	if n == 0 || n != len(labels) {
		return math.NaN()
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	// Midranks with tie handling.
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && scores[idx[j+1]] == scores[idx[i]] {
			j++
		}
		mid := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = mid
		}
		i = j + 1
	}
	var nPos, nNeg, rPos float64
	for i := 0; i < n; i++ {
		if labels[i] > 0.5 {
			nPos++
			rPos += ranks[i]
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return math.NaN()
	}
	return (rPos - nPos*(nPos+1)/2) / (nPos * nNeg)
}
