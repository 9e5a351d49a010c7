package fedora

import (
	"errors"
	"sync"
	"testing"
)

// newConcurrencyController builds a small functional controller whose
// buffer can hold every row the tests touch.
func newConcurrencyController(t *testing.T) *Controller {
	t.Helper()
	c, err := New(Config{
		NumRows: 256, Dim: 4, Epsilon: 0, // ε=0 ⇒ k=K: every request is served
		MaxClientsPerRound: 16, MaxFeaturesPerClient: 16,
		LearningRate: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestConcurrentServeAndSubmit hammers an in-flight round from many
// goroutines — the access pattern of the parallel FL trainer — and
// checks the aggregated result matches the sequential semantics. The
// gradients are small integers so float addition is exact and the
// expected values are order-independent. Run with -race.
func TestConcurrentServeAndSubmit(t *testing.T) {
	c := newConcurrencyController(t)
	const clients = 16
	rows := []uint64{3, 7, 11, 42}
	reqs := make([][]uint64, clients)
	for i := range reqs {
		reqs[i] = rows
	}
	round, err := c.BeginRound(reqs)
	if err != nil {
		t.Fatal(err)
	}

	before := make(map[uint64][]float32)
	for _, row := range rows {
		entry, ok, err := round.ServeEntry(row)
		if err != nil || !ok {
			t.Fatalf("ServeEntry(%d) = %v, %v", row, ok, err)
		}
		before[row] = entry
	}

	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, row := range rows {
				if _, ok, err := round.ServeEntry(row); err != nil || !ok {
					errCh <- err
					return
				}
				// Exactly-representable gradient: each client adds 1.0 per
				// dimension with n=1, so the FedAvg mean is exactly 1.
				grad := []float32{1, 1, 1, 1}
				if delivered, err := round.SubmitGradient(row, grad, 1); err != nil || !delivered {
					errCh <- err
					return
				}
			}
			// Exercise the read-only controller surface concurrently too.
			_ = c.Round()
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("concurrent round op failed: %v", err)
	}

	if _, err := round.Finish(); err != nil {
		t.Fatal(err)
	}
	// FedAvg with LearningRate 1 applies −mean(grad) = −1 per dimension.
	for _, row := range rows {
		after, err := c.PeekRow(row)
		if err != nil {
			t.Fatal(err)
		}
		for j := range after {
			want := before[row][j] - 1
			if after[j] != want {
				t.Fatalf("row %d dim %d: got %v, want %v", row, j, after[j], want)
			}
		}
	}
}

// TestConcurrentBeginRoundRejected checks that a second BeginRound
// issued while a round is in flight — from any goroutine — fails with
// ErrRoundInProgress rather than corrupting the pipeline.
func TestConcurrentBeginRoundRejected(t *testing.T) {
	c := newConcurrencyController(t)
	round, err := c.BeginRound([][]uint64{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.BeginRound([][]uint64{{3}}); !errors.Is(err, ErrRoundInProgress) {
				t.Errorf("concurrent BeginRound: err = %v, want ErrRoundInProgress", err)
			}
		}()
	}
	wg.Wait()
	if _, err := round.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BeginRound([][]uint64{{3}}); err != nil {
		t.Errorf("BeginRound after Finish: %v", err)
	}
}

// TestFinishRacesWithLateUploads checks that uploads racing with Finish
// either land or fail cleanly with the round-finished error — never a
// torn state. Run with -race.
func TestFinishRacesWithLateUploads(t *testing.T) {
	c := newConcurrencyController(t)
	round, err := c.BeginRound([][]uint64{{5, 9}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := round.SubmitGradient(5, []float32{0, 0, 0, 0}, 1); err != nil {
				return // round finished under us: the expected clean failure
			}
		}
	}()
	go func() {
		defer wg.Done()
		if _, err := round.Finish(); err != nil {
			t.Errorf("Finish: %v", err)
		}
	}()
	wg.Wait()
}
