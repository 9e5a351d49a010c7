// HTTP client walkthrough: starts an in-process FEDORA server (the same
// handler cmd/fedora-server exposes), then plays the orchestrator and
// two clients over the wire with the internal/client SDK — the
// networked version of the quickstart, on the batched v2 protocol.
//
//	go run ./examples/httpclient
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/fedora"
)

func main() {
	ctrl, err := fedora.New(fedora.Config{
		NumRows: 100_000, Dim: 8, Epsilon: 1.0,
		MaxClientsPerRound: 8, MaxFeaturesPerClient: 8,
		LearningRate: 0.5, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv := httptest.NewServer(api.NewServer(ctrl).Handler())
	defer srv.Close()

	// The SDK retries transient faults with capped exponential backoff
	// and splits large row sets into BatchSize-row HTTP transfers.
	c, err := client.New(client.Config{
		BaseURL:    srv.URL,
		Timeout:    10 * time.Second,
		MaxRetries: 4,
		BatchSize:  64,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	status, err := c.Status(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server up: backend=%s main ORAM %.1f MB\n\n",
		status.Backend, float64(status.MainORAMBytes)/1e6)

	// Orchestrator opens a round for two clients. BeginRound attaches an
	// idempotency key, so a retried begin never double-opens the round.
	alice := []uint64{7, 21, 1000}
	bob := []uint64{7, 99}
	info, err := c.BeginRound(ctx, [][]uint64{alice, bob})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("round %s open (controller round %d)\n", info.RoundID, info.Round)

	// Each client downloads all its rows in one batched request and
	// uploads its gradients in one batch (with a dedup batch id).
	for who, rows := range map[string][]uint64{"alice": alice, "bob": bob} {
		entries, err := c.Entries(ctx, info.RoundID, rows)
		if err != nil {
			log.Fatal(err)
		}
		var grads []api.GradientRequest
		for _, e := range entries {
			if !e.OK {
				fmt.Printf("%s: row %d lost to the mechanism\n", who, e.Row)
				continue
			}
			grad := make([]float32, len(e.Entry))
			for i := range grad {
				grad[i] = 1
			}
			grads = append(grads, api.GradientRequest{Row: e.Row, Grad: grad, Samples: 1})
		}
		if _, err := c.SubmitGradients(ctx, info.RoundID, grads); err != nil {
			log.Fatal(err)
		}
	}

	done, err := c.FinishRound(ctx, info.RoundID)
	if err != nil {
		log.Fatal(err)
	}
	st := done.Stats
	// The reply carries what an observer may learn — K, the noised access
	// count and ε — never the unique-row count the mechanism hides.
	fmt.Printf("round done: K=%d oram-accesses=%d eps=%s overhead=%s\n",
		st.K, st.KSampled, st.RoundEpsilon, st.TotalOverhead)
	hs := c.Stats()
	fmt.Printf("http: %d requests, %d retries, %d failures\n", hs.Requests, hs.Retries, hs.Failures)
}
