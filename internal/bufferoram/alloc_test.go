package bufferoram

import (
	"errors"
	"testing"
)

// TestServeAggregateSteadyStateAllocs: the buffer ORAM is unsealed, so a
// steady-state Aggregate — gradient pre-processing, the path read, the
// in-place float32 add on the block bytes, the path write — allocates
// nothing, and a Serve allocates only the entry it returns.
func TestServeAggregateSteadyStateAllocs(t *testing.T) {
	b := newBuf(t, Config{Capacity: 256, Dim: 16, Seed: 3})
	const rows = 64
	entry, grad := make([]float32, 16), make([]float32, 16)
	for i := range grad {
		entry[i], grad[i] = float32(i), 0.25
	}
	for round := 0; round < 6; round++ { // fill the tree and the stash's block pool
		for id := uint64(0); id < rows; id++ {
			if _, err := b.Load(id, entry); err != nil {
				t.Fatal(err)
			}
		}
		for id := uint64(0); id < rows; id++ {
			if _, _, err := b.Serve(id); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Aggregate(id, grad, 2); err != nil {
				t.Fatal(err)
			}
		}
		if round == 5 {
			break // leave the rows loaded for the measurement
		}
		for id := uint64(0); id < rows; id++ {
			if _, _, err := b.Unload(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	var id uint64
	if n := testing.AllocsPerRun(500, func() {
		if _, err := b.Aggregate(id%rows, grad, 2); err != nil {
			t.Fatal(err)
		}
		id++
	}); n > 0 {
		t.Errorf("Aggregate allocates %.1f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(500, func() {
		if _, _, err := b.Serve(id % rows); err != nil {
			t.Fatal(err)
		}
		id++
	}); n > 1 {
		t.Errorf("Serve allocates %.1f times per call, want <= 1 (the returned entry)", n)
	}
	// UnloadTo runs Post into the PostCtx's buffer and the entry into the
	// caller's; reloading the row keeps the measurement repeatable.
	dst := make([]float32, 16)
	if n := testing.AllocsPerRun(500, func() {
		if _, err := b.UnloadTo(id%rows, dst); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Load(id%rows, entry); err != nil {
			t.Fatal(err)
		}
		id++
	}); n > 0 {
		t.Errorf("UnloadTo + Load allocate %.1f times per pair, want 0", n)
	}
}

// TestUnloadToMatchesUnload: the caller-buffer form returns what Unload
// returns, checks its buffer, and leaves the row unloaded either way.
func TestUnloadToMatchesUnload(t *testing.T) {
	a := newBuf(t, Config{Capacity: 64, Dim: 4, Seed: 8, LearningRate: 0.5})
	b := newBuf(t, Config{Capacity: 64, Dim: 4, Seed: 8, LearningRate: 0.5})
	entry, grad := []float32{1, 2, 3, 4}, []float32{0.5, -1, 0.25, 2}
	for _, buf := range []*Buffer{a, b} {
		if _, err := buf.Load(9, entry); err != nil {
			t.Fatal(err)
		}
		if _, err := buf.Aggregate(9, grad, 3); err != nil {
			t.Fatal(err)
		}
	}
	want, _, err := a.Unload(9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.UnloadTo(9, make([]float32, 3)); err == nil {
		t.Fatal("UnloadTo accepted a short buffer")
	}
	got := make([]float32, 4)
	if _, err := b.UnloadTo(9, got); err != nil {
		t.Fatal(err)
	}
	if !approxEqual(got, want, 0) {
		t.Errorf("UnloadTo = %v, Unload = %v", got, want)
	}
	if _, err := b.UnloadTo(9, got); !errors.Is(err, ErrNotLoaded) {
		t.Errorf("second UnloadTo err = %v, want ErrNotLoaded", err)
	}
}

// TestServeResultsAreCallerOwned: k retained Serve and Unload results
// keep their values while later accesses rewrite the block bytes in
// place and recycle stash blocks.
func TestServeResultsAreCallerOwned(t *testing.T) {
	b := newBuf(t, Config{Capacity: 64, Dim: 4, Seed: 4})
	const k = 32
	want := func(id uint64) []float32 { return []float32{float32(id), 1, 2, 3} }
	for id := uint64(0); id < k; id++ {
		if _, err := b.Load(id, want(id)); err != nil {
			t.Fatal(err)
		}
	}
	var served, unloaded [k][]float32
	for id := uint64(0); id < k; id++ {
		var err error
		if served[id], _, err = b.Serve(id); err != nil {
			t.Fatal(err)
		}
	}
	for id := uint64(0); id < k; id++ { // no gradient: Unload returns the entry unchanged
		var err error
		if unloaded[id], _, err = b.Unload(id); err != nil {
			t.Fatal(err)
		}
	}
	for id := uint64(100); id < 100+k; id++ { // churn the same slots with other rows
		if _, err := b.Load(id, []float32{9, 9, 9, 9}); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Aggregate(id, []float32{1, 1, 1, 1}, 1); err != nil {
			t.Fatal(err)
		}
	}
	for id := uint64(0); id < k; id++ {
		if !approxEqual(served[id], want(id), 0) {
			t.Errorf("retained Serve(%d) = %v, clobbered by a later access", id, served[id])
		}
		if !approxEqual(unloaded[id], want(id), 0) {
			t.Errorf("retained Unload(%d) = %v, clobbered by a later access", id, unloaded[id])
		}
	}
}
