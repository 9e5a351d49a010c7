// Package bufferoram implements FEDORA's buffer ORAM (Sec 4.3): the
// small DRAM-resident ORAM that holds the working set of embedding
// entries during one FL round and performs in-place gradient aggregation.
//
// Blocks in the buffer ORAM are twice the size of main-ORAM blocks plus
// bookkeeping: the first half holds the entry read from the main ORAM,
// the second half accumulates the (pre-processed) gradients users upload,
// and extra slots hold the sample count n_t and any aggregator state.
// The programmable pre-/post-aggregation hooks implement the paper's
// generalized update rule (Eq. 4):
//
//	θ_{t+1} = θ_t − η · Post(Σ_c Pre(Δθ_c))
//
// Provided aggregators: FedAvg (weighted mean, dropout-tolerant),
// FedAdam (server-side adaptive moments), EANA (clip + Gaussian noise,
// a DP method for recommendation models), and LazyDP (noise scaled by
// rounds-since-last-update, tracked per block).
//
// Key invariants (Sec 4.3): the capacity equals max clients/round × max
// features/client, so a round can never overflow the buffer (Load fails
// loudly if the sizing contract is violated); Serve/Aggregate of a
// non-resident entry still costs one indistinguishable ORAM touch; and a
// slot is recycled only after Unload has applied the aggregate and
// returned the entry for write-back.
package bufferoram

import (
	"fmt"
	"math"
	"math/rand"
)

// PostCtx carries the per-block context available to Post.
type PostCtx struct {
	// Round is the global FL round number.
	Round uint64
	// Count is the accumulated FedAvg weight Σ n_c (sample counts).
	Count float32
	// State is the aggregator's persistent per-block state slots.
	State []float32
	// Rng supplies noise for DP aggregators.
	Rng *rand.Rand

	delta []float32 // the built-in aggregators' result, reused block after block
}

// out returns ctx's n-float result buffer, zeroed. What Post returns in
// it is valid until the next Post with the same ctx; Unload consumes it
// before moving on.
func (ctx *PostCtx) out(n int) []float32 {
	if cap(ctx.delta) < n {
		ctx.delta = make([]float32, n)
	}
	ctx.delta = ctx.delta[:n]
	clear(ctx.delta)
	return ctx.delta
}

// Aggregator is the programmable aggregation mode of Eq. 4.
type Aggregator interface {
	// Name identifies the mode.
	Name() string
	// StateLen is the number of persistent float32 state slots each block
	// needs (e.g. Adam moments), given the embedding dimension.
	StateLen(dim int) int
	// Pre transforms one user's gradient in place before accumulation;
	// nSamples is the user's local sample count n_c.
	Pre(grad []float32, nSamples int)
	// Post transforms the accumulated sum into the delta applied to the
	// entry (before the learning-rate multiply). It may mutate ctx.State.
	// The caller reads the result before its next Post and keeps nothing.
	Post(sum []float32, ctx *PostCtx) []float32
}

// FedAvg is the weighted-average rule of Eq. 1: Pre scales by n_c, Post
// divides by n_t = Σ n_c. Users that drop out between download and upload
// simply never contribute, and n_t adjusts automatically (Sec 4.3).
type FedAvg struct{}

// Name implements Aggregator.
func (FedAvg) Name() string { return "fedavg" }

// StateLen implements Aggregator.
func (FedAvg) StateLen(int) int { return 0 }

// Pre implements Aggregator.
func (FedAvg) Pre(grad []float32, nSamples int) {
	n := float32(nSamples)
	for i := range grad {
		grad[i] *= n
	}
}

// Post implements Aggregator.
func (FedAvg) Post(sum []float32, ctx *PostCtx) []float32 {
	out := ctx.out(len(sum))
	if ctx.Count <= 0 {
		return out // nobody uploaded: no update
	}
	for i := range sum {
		out[i] = sum[i] / ctx.Count
	}
	return out
}

// FedAdam applies server-side Adam (Reddi et al.) to the FedAvg mean
// gradient, keeping first/second moments per embedding row.
type FedAdam struct {
	Beta1, Beta2 float64
	EpsilonAdam  float64
}

// NewFedAdam returns FedAdam with the customary hyperparameters.
func NewFedAdam() FedAdam {
	return FedAdam{Beta1: 0.9, Beta2: 0.999, EpsilonAdam: 1e-8}
}

// Name implements Aggregator.
func (FedAdam) Name() string { return "fedadam" }

// StateLen implements Aggregator: m and v vectors plus a step counter.
func (FedAdam) StateLen(dim int) int { return 2*dim + 1 }

// Pre implements Aggregator (same weighting as FedAvg).
func (FedAdam) Pre(grad []float32, nSamples int) {
	FedAvg{}.Pre(grad, nSamples)
}

// Post implements Aggregator.
func (f FedAdam) Post(sum []float32, ctx *PostCtx) []float32 {
	dim := len(sum)
	m := ctx.State[:dim]
	v := ctx.State[dim : 2*dim]
	tSlot := &ctx.State[2*dim]
	out := ctx.out(dim)
	if ctx.Count <= 0 {
		return out
	}
	*tSlot++
	t := float64(*tSlot)
	for i := range sum {
		g := float64(sum[i]) / float64(ctx.Count)
		mi := f.Beta1*float64(m[i]) + (1-f.Beta1)*g
		vi := f.Beta2*float64(v[i]) + (1-f.Beta2)*g*g
		m[i], v[i] = float32(mi), float32(vi)
		mHat := mi / (1 - math.Pow(f.Beta1, t))
		vHat := vi / (1 - math.Pow(f.Beta2, t))
		out[i] = float32(mHat / (math.Sqrt(vHat) + f.EpsilonAdam))
	}
	return out
}

// EANA (Ning et al., RecSys'22) adapted to FL per Sec 4.3: per-user
// gradients are L2-clipped to C before aggregation, and Gaussian noise
// N(0, σ²C²) is added once to the aggregate.
type EANA struct {
	Clip  float64 // C
	Sigma float64 // σ
}

// Name implements Aggregator.
func (EANA) Name() string { return "eana" }

// StateLen implements Aggregator.
func (EANA) StateLen(int) int { return 0 }

// Pre implements Aggregator: x / max(1, ‖x‖₂/C).
func (e EANA) Pre(grad []float32, _ int) {
	clipInPlace(grad, e.Clip)
}

// Post implements Aggregator: x + N(0, σ²C²I).
func (e EANA) Post(sum []float32, ctx *PostCtx) []float32 {
	out := ctx.out(len(sum))
	sd := e.Sigma * e.Clip
	for i := range sum {
		out[i] = sum[i] + float32(ctx.Rng.NormFloat64()*sd)
	}
	return out
}

// LazyDP (Lim et al., ASPLOS'24) adapted to FL per Sec 4.3: like EANA but
// the noise variance scales with r, the number of rounds since this entry
// was last updated, tracked with a per-block state slot.
type LazyDP struct {
	Clip  float64
	Sigma float64
}

// Name implements Aggregator.
func (LazyDP) Name() string { return "lazydp" }

// StateLen implements Aggregator: one slot for the last-updated round.
func (LazyDP) StateLen(int) int { return 1 }

// Pre implements Aggregator.
func (l LazyDP) Pre(grad []float32, _ int) {
	clipInPlace(grad, l.Clip)
}

// Post implements Aggregator: x + N(0, r·σ²C²I), then stamps the round.
func (l LazyDP) Post(sum []float32, ctx *PostCtx) []float32 {
	last := uint64(ctx.State[0])
	r := ctx.Round - last
	if r < 1 {
		r = 1
	}
	ctx.State[0] = float32(ctx.Round)
	out := ctx.out(len(sum))
	sd := math.Sqrt(float64(r)) * l.Sigma * l.Clip
	for i := range sum {
		out[i] = sum[i] + float32(ctx.Rng.NormFloat64()*sd)
	}
	return out
}

// clipInPlace scales x so its L2 norm is at most c: x / max(1, ‖x‖/c).
func clipInPlace(x []float32, c float64) {
	var norm2 float64
	for _, v := range x {
		norm2 += float64(v) * float64(v)
	}
	norm := math.Sqrt(norm2)
	if norm <= c || norm == 0 {
		return
	}
	scale := float32(c / norm)
	for i := range x {
		x[i] *= scale
	}
}

// AggregatorByName resolves a mode name for CLIs.
func AggregatorByName(name string) (Aggregator, error) {
	switch name {
	case "fedavg":
		return FedAvg{}, nil
	case "fedadam":
		return NewFedAdam(), nil
	case "eana":
		return EANA{Clip: 1, Sigma: 0.1}, nil
	case "lazydp":
		return LazyDP{Clip: 1, Sigma: 0.1}, nil
	case "fedadagrad":
		return NewFedAdagrad(), nil
	case "fedyogi":
		return NewFedYogi(), nil
	default:
		return nil, fmt.Errorf("bufferoram: unknown aggregator %q", name)
	}
}

// FedAdagrad applies server-side Adagrad (Reddi et al., "Adaptive
// Federated Optimization") to the FedAvg mean gradient, accumulating a
// per-coordinate squared-gradient sum per embedding row.
type FedAdagrad struct {
	EpsilonAda float64
}

// NewFedAdagrad returns FedAdagrad with the customary damping.
func NewFedAdagrad() FedAdagrad { return FedAdagrad{EpsilonAda: 1e-8} }

// Name implements Aggregator.
func (FedAdagrad) Name() string { return "fedadagrad" }

// StateLen implements Aggregator: the accumulator vector.
func (FedAdagrad) StateLen(dim int) int { return dim }

// Pre implements Aggregator (FedAvg weighting).
func (FedAdagrad) Pre(grad []float32, nSamples int) { FedAvg{}.Pre(grad, nSamples) }

// Post implements Aggregator.
func (f FedAdagrad) Post(sum []float32, ctx *PostCtx) []float32 {
	dim := len(sum)
	acc := ctx.State[:dim]
	out := ctx.out(dim)
	if ctx.Count <= 0 {
		return out
	}
	for i := range sum {
		g := float64(sum[i]) / float64(ctx.Count)
		a := float64(acc[i]) + g*g
		acc[i] = float32(a)
		out[i] = float32(g / (math.Sqrt(a) + f.EpsilonAda))
	}
	return out
}

// FedYogi is Reddi et al.'s Yogi variant: like FedAdam but with a sign-
// controlled second-moment update that prevents v from growing faster
// than the gradient scale warrants.
type FedYogi struct {
	Beta1, Beta2 float64
	EpsilonYogi  float64
}

// NewFedYogi returns FedYogi with the paper's defaults.
func NewFedYogi() FedYogi {
	return FedYogi{Beta1: 0.9, Beta2: 0.99, EpsilonYogi: 1e-3}
}

// Name implements Aggregator.
func (FedYogi) Name() string { return "fedyogi" }

// StateLen implements Aggregator: m and v vectors.
func (FedYogi) StateLen(dim int) int { return 2 * dim }

// Pre implements Aggregator (FedAvg weighting).
func (FedYogi) Pre(grad []float32, nSamples int) { FedAvg{}.Pre(grad, nSamples) }

// Post implements Aggregator.
func (f FedYogi) Post(sum []float32, ctx *PostCtx) []float32 {
	dim := len(sum)
	m := ctx.State[:dim]
	v := ctx.State[dim : 2*dim]
	out := ctx.out(dim)
	if ctx.Count <= 0 {
		return out
	}
	for i := range sum {
		g := float64(sum[i]) / float64(ctx.Count)
		mi := f.Beta1*float64(m[i]) + (1-f.Beta1)*g
		g2 := g * g
		vi := float64(v[i])
		// Yogi: v ← v − (1−β2)·g²·sign(v − g²).
		vi -= (1 - f.Beta2) * g2 * sign(vi-g2)
		m[i], v[i] = float32(mi), float32(vi)
		out[i] = float32(mi / (math.Sqrt(math.Max(vi, 0)) + f.EpsilonYogi))
	}
	return out
}

func sign(x float64) float64 {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}
