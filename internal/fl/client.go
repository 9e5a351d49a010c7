package fl

import (
	"cmp"
	"math/rand"
	"slices"

	"repro/internal/recmodel"
)

// deadHook, set only by tests, is handed every reused buffer the moment
// its contents are meant to be dead — a worker's scratch after each
// client, a client's deltas once submitted or encoded — so a test can
// poison it and prove nothing reads it.
var deadHook func(buf any)

// clientScratch is one pool worker's reusable client state. A worker
// trains one client at a time, so nothing in it is shared.
type clientScratch struct {
	model    *recmodel.Model
	rng      *rand.Rand // the client-dropout draw, reseeded per client
	realRows []uint64
	ws       workingSet
}

// reserve readies the reused buffers for a round: the global MLP
// flattened once for all clients, workers scratches, clients uploads.
func (t *Trainer) reserve(workers, clients int) {
	cfg := t.cfg
	t.globalFlat = t.global.MLP.AppendParams(t.globalFlat[:0])
	for len(t.scratch) < workers {
		t.scratch = append(t.scratch, &clientScratch{
			model: recmodel.New(recmodel.Config{
				Dim: cfg.Dim, Hidden: cfg.Hidden, UsePrivate: cfg.UsePrivate,
				LR: cfg.LocalLR, Seed: cfg.Seed, Dropout: cfg.Dropout,
				Pooling: cfg.Pooling, DenseIn: cfg.DenseIn,
			}),
			rng: rand.New(rand.NewSource(0)),
			ws:  workingSet{dim: cfg.Dim, slotOf: map[uint64]int32{}},
		})
	}
	if n := clients - len(t.uploads); n > 0 {
		t.uploads = append(t.uploads, make([]clientUpload, n)...)
	}
}

// workingSet is one client's downloaded rows, slot-indexed: a row→slot
// map and three flat arenas of Dim floats per slot — the local copies
// training moves, the pristine downloads the deltas are taken against,
// and the current step's gradients. It is both the EmbeddingSource and
// the GradSink of the client's TrainSteps, and a step updates only the
// slots it touched.
type workingSet struct {
	dim                   int
	slotOf                map[uint64]int32
	ids                   []uint64 // slot → row
	resident              []bool   // the slot holds a served row (not a substitute)
	inStep                []bool   // the slot has a gradient this step
	local, pristine, grad []float32
	touched, order        []int32 // this step's slots, in first-touch order; delta order
}

// reset empties the set for the next client, keeping its capacity.
func (ws *workingSet) reset() {
	clear(ws.slotOf)
	ws.ids, ws.resident, ws.inStep = ws.ids[:0], ws.resident[:0], ws.inStep[:0]
	ws.local, ws.pristine, ws.grad = ws.local[:0], ws.pristine[:0], ws.grad[:0]
}

func (ws *workingSet) vec(arena []float32, s int32) []float32 {
	i := int(s) * ws.dim
	return arena[i : i+ws.dim : i+ws.dim]
}

// put copies vec in as row's local value, taking a slot on the row's
// first sight; a served row also keeps a pristine copy and uploads.
func (ws *workingSet) put(row uint64, vec []float32, served bool) {
	s, ok := ws.slotOf[row]
	if !ok {
		s = int32(len(ws.ids))
		ws.slotOf[row] = s
		ws.ids = append(ws.ids, row)
		ws.resident = append(ws.resident, false)
		ws.inStep = append(ws.inStep, false)
		n := len(ws.local) + ws.dim
		ws.local = slices.Grow(ws.local, ws.dim)[:n]
		ws.pristine = slices.Grow(ws.pristine, ws.dim)[:n]
		ws.grad = slices.Grow(ws.grad, ws.dim)[:n]
	}
	copy(ws.vec(ws.local, s), vec)
	if served {
		copy(ws.vec(ws.pristine, s), vec)
		ws.resident[s] = true
	}
}

// Row implements recmodel.EmbeddingSource over the local copies.
func (ws *workingSet) Row(id uint64) ([]float32, bool) {
	s, ok := ws.slotOf[id]
	if !ok {
		return nil, false
	}
	return ws.vec(ws.local, s), true
}

// Add implements recmodel.GradSink: a row's step gradient is zeroed on
// its first touch and then accumulated in the order the model emits.
// TrainStep only emits gradients for rows Row served.
func (ws *workingSet) Add(id uint64, g []float32) {
	s := ws.slotOf[id]
	slot := ws.vec(ws.grad, s)
	if !ws.inStep[s] {
		ws.inStep[s] = true
		ws.touched = append(ws.touched, s)
		clear(slot)
	}
	for i := range g {
		slot[i] += g[i]
	}
}

// step applies the step's gradients to the local copies of the rows it
// touched. Rows are independent, so the order they are applied in
// cannot matter.
func (ws *workingSet) step(lr float32) {
	for _, s := range ws.touched {
		vec, g := ws.vec(ws.local, s), ws.vec(ws.grad, s)
		for j := range vec {
			vec[j] -= lr * g[j]
		}
		ws.inStep[s] = false
	}
	ws.touched = ws.touched[:0]
}

// deltas fills up with θ_downloaded − θ_trained for every resident row
// training changed, in ascending row order.
func (ws *workingSet) deltas(up *clientUpload) {
	ws.order = ws.order[:0]
	for s, res := range ws.resident {
		if res {
			ws.order = append(ws.order, int32(s))
		}
	}
	slices.SortFunc(ws.order, func(a, b int32) int { return cmp.Compare(ws.ids[a], ws.ids[b]) })
	up.rows, up.deltas = up.rows[:0], up.deltas[:0]
	up.flat = slices.Grow(up.flat[:0], len(ws.order)*ws.dim)
	for _, s := range ws.order {
		down, vec := ws.vec(ws.pristine, s), ws.vec(ws.local, s)
		n := len(up.flat)
		delta := up.flat[n : n+ws.dim : n+ws.dim] // within the capacity grown above
		changed := false
		for j := range vec {
			delta[j] = down[j] - vec[j]
			if delta[j] != 0 {
				changed = true
			}
		}
		if changed { // else the row was downloaded but untouched by training
			up.flat = up.flat[:n+ws.dim]
			up.rows = append(up.rows, ws.ids[s])
			up.deltas = append(up.deltas, delta)
		}
	}
}

// clientUpload is one client index's upload, reused across rounds: the
// rows it changed, their deltas (slices of flat) and its MLP delta.
type clientUpload struct {
	rows     []uint64
	flat     []float32
	deltas   [][]float32
	mlpDelta []float32
}
