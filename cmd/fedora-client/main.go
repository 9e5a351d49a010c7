// Command fedora-client is a CLI for the FEDORA serving API, built on
// the internal/client SDK (v2 protocol: batched transfers, retries
// with capped exponential backoff, idempotency keys).
//
//	fedora-client -server http://localhost:8080 status
//	fedora-client -server http://localhost:8080 round -requests "1,2,3;4,5"
//	fedora-client -server http://localhost:8080 bench -clients 8 -k 32
//
// The bench subcommand runs one FL round over the batched API and
// reports its HTTP request count and wall time, then replays the same
// round once per wire upload codec (see internal/wire) and reports the
// gradient-upload bytes each codec puts on the wire.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/wire"
)

func main() {
	var (
		server  = flag.String("server", "http://127.0.0.1:8080", "server base URL")
		timeout = flag.Duration("timeout", 30*time.Second, "per-attempt HTTP timeout")
		retries = flag.Int("retries", 4, "max retries per request")
		batch   = flag.Int("batch", 64, "rows per batched transfer")
	)
	flag.Parse()

	c, err := client.New(client.Config{
		BaseURL:    *server,
		Timeout:    *timeout,
		MaxRetries: *retries,
		BatchSize:  *batch,
	})
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()

	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		fmt.Fprintln(os.Stderr, "subcommands: status | cluster | round -requests \"1,2,3;4,5\" | bench -clients N -k K")
		os.Exit(2)
	}
	switch args[0] {
	case "status":
		runStatus(ctx, c)
	case "cluster":
		runCluster(ctx, c)
	case "round":
		fs := flag.NewFlagSet("round", flag.ExitOnError)
		requests := fs.String("requests", "", "per-client row lists: rows comma-separated, clients semicolon-separated")
		deadline := fs.Duration("deadline", 0, "round deadline (0 = none)")
		fs.Parse(args[1:])
		runRound(ctx, c, *requests, *deadline)
	case "bench":
		fs := flag.NewFlagSet("bench", flag.ExitOnError)
		clients := fs.Int("clients", 8, "simulated clients per round")
		k := fs.Int("k", 32, "rows per client")
		seed := fs.Int64("seed", 1, "row-selection seed")
		fs.Parse(args[1:])
		runBench(ctx, c, *clients, *k, *seed)
	default:
		fatal(fmt.Errorf("unknown subcommand %q", args[0]))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fedora-client:", err)
	os.Exit(1)
}

func runStatus(ctx context.Context, c *client.Client) {
	st, err := c.Status(ctx)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("backend:           %s\n", st.Backend)
	fmt.Printf("shards:            %d\n", st.Shards)
	fmt.Printf("rows:              %d\n", st.NumRows)
	fmt.Printf("round:             %d (in progress: %v", st.Round, st.RoundInProgress)
	if st.CurrentRoundID != "" {
		fmt.Printf(", id %s", st.CurrentRoundID)
	}
	fmt.Println(")")
	fmt.Printf("effective epsilon: %s\n", st.EffectiveEpsilon)
	fmt.Printf("main ORAM bytes:   %d\n", st.MainORAMBytes)
	fmt.Printf("DRAM bytes:        %d\n", st.DRAMBytes)
	fmt.Printf("SSD read/written:  %d / %d\n", st.SSDBytesRead, st.SSDBytesWritten)

	// Health comes from /healthz, not /v2/status — without it a server
	// with quarantined shards prints exactly like a healthy one while
	// silently serving degraded rounds (every row on a quarantined shard
	// comes back unavailable).
	hz, err := c.Healthz(ctx)
	if err != nil {
		fmt.Printf("health:            unknown (%v)\n", err)
		return
	}
	quarantined := 0
	for _, sh := range hz.Shards {
		if sh.Quarantined {
			quarantined++
		}
	}
	fmt.Printf("health:            %s", hz.Status)
	if quarantined > 0 {
		fmt.Printf(" (%d/%d shards quarantined)", quarantined, len(hz.Shards))
	}
	fmt.Println()
	for _, sh := range hz.Shards {
		if sh.Quarantined {
			fmt.Printf("  shard %d (%d rows) quarantined: %s\n", sh.Shard, sh.Rows, sh.Cause)
		}
	}
	if hz.RecoverError != "" {
		fmt.Printf("recover error:     %s\n", hz.RecoverError)
	}
}

// runCluster prints a coordinator's placement map and per-node health.
func runCluster(ctx context.Context, c *client.Client) {
	st, err := c.ClusterStatus(ctx)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("cluster: %d shards over %d rows, round %d, %s\n",
		st.Shards, st.NumRows, st.Round, st.Status)
	if st.LastCheckpointRound > 0 || st.LastCheckpointError != "" {
		fmt.Printf("checkpoint: sealed round %d", st.LastCheckpointRound)
		if st.LastCheckpointError != "" {
			fmt.Printf(", latest attempt FAILED: %s", st.LastCheckpointError)
		}
		fmt.Println()
	}
	// Leader/epoch exists only on HA-enabled coordinators; a 404 from an
	// older (or non-durable) one just means there is nothing to print.
	if ld, err := c.ClusterLeader(ctx); err == nil {
		fmt.Printf("leader:  role %s, coordinator epoch %d", ld.Role, ld.Epoch)
		if ld.LeaderURL != "" {
			fmt.Printf(", leader %s", ld.LeaderURL)
		}
		fmt.Println()
	}
	fmt.Printf("%-4s %-28s %-12s %-16s %-10s %-10s\n",
		"node", "url", "shards", "rows", "state", "health")
	for i, n := range st.Nodes {
		health := n.Health
		if health == "" {
			health = "-"
		}
		shardRange := fmt.Sprintf("[%d,%d)", n.FirstShard, n.FirstShard+n.ShardCount)
		rowRange := fmt.Sprintf("[%d,%d)", n.FirstRow, n.FirstRow+n.Rows)
		fmt.Printf("%-4d %-28s %-12s %-16s %-10s %-10s\n",
			i, n.URL, shardRange, rowRange, n.State, health)
		if len(n.Quarantined) > 0 {
			fmt.Printf("     quarantined shards: %v\n", n.Quarantined)
		}
		if n.LastError != "" {
			fmt.Printf("     last error: %s\n", n.LastError)
		}
	}
}

// parseRequests turns "1,2,3;4,5" into [][]uint64{{1,2,3},{4,5}}.
func parseRequests(s string) ([][]uint64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("empty -requests")
	}
	var out [][]uint64
	for _, clientPart := range strings.Split(s, ";") {
		var rows []uint64
		for _, rowPart := range strings.Split(clientPart, ",") {
			rowPart = strings.TrimSpace(rowPart)
			if rowPart == "" {
				continue
			}
			row, err := strconv.ParseUint(rowPart, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad row %q: %w", rowPart, err)
			}
			rows = append(rows, row)
		}
		out = append(out, rows)
	}
	return out, nil
}

// runRound begins a round from the given requests, downloads every
// requested row (batched), and finishes, printing the round stats.
func runRound(ctx context.Context, c *client.Client, requests string, deadline time.Duration) {
	reqs, err := parseRequests(requests)
	if err != nil {
		fatal(err)
	}
	info, err := c.Begin(ctx, api.BeginV2Request{Requests: reqs, DeadlineMS: deadline.Milliseconds()})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("round %s (controller round %d) begun\n", info.RoundID, info.Round)

	var all []uint64
	for _, rows := range reqs {
		all = append(all, rows...)
	}
	entries, err := c.Entries(ctx, info.RoundID, all)
	if err != nil {
		fatal(err)
	}
	served, unavailable := 0, 0
	for _, e := range entries {
		switch {
		case e.OK:
			served++
		case e.Unavailable:
			unavailable++
		}
	}
	lost := len(entries) - served - unavailable
	fmt.Printf("downloaded %d rows (%d served, %d lost)\n", len(entries), served, lost)
	if unavailable > 0 {
		fmt.Printf("DEGRADED ROUND: %d row(s) unavailable (owning shard quarantined or node fenced)\n", unavailable)
	}

	done, err := c.FinishRound(ctx, info.RoundID)
	if err != nil {
		fatal(err)
	}
	if done.Stats != nil {
		st := done.Stats
		fmt.Printf("finished: k=%d sampled=%d chunks=%d eps=%s overhead=%s\n",
			st.K, st.KSampled, st.Chunks, st.RoundEpsilon, st.TotalOverhead)
	} else {
		fmt.Println("finished")
	}
	stats := c.Stats()
	fmt.Printf("http: %d requests, %d retries, %d failures\n", stats.Requests, stats.Retries, stats.Failures)
}

// runBench measures one round of batched transfers, then the upload
// bytes of each wire codec.
func runBench(ctx context.Context, c *client.Client, clients, k int, seed int64) {
	st, err := c.Status(ctx)
	if err != nil {
		fatal(err)
	}
	if st.RoundInProgress {
		fatal(fmt.Errorf("a round is already in progress; bench needs an idle server"))
	}
	rng := rand.New(rand.NewSource(seed))
	reqs := make([][]uint64, clients)
	for i := range reqs {
		rows := make([]uint64, k)
		for j := range rows {
			rows[j] = uint64(rng.Int63n(int64(st.NumRows)))
		}
		reqs[i] = rows
	}
	total := clients * k

	// The embedding dimension (for the zero gradients bench uploads)
	// comes from the evaluation backdoor.
	row0, err := c.PeekRow(ctx, 0)
	if err != nil {
		fatal(err)
	}
	zero := make([]float32, len(row0))

	// Batched transfers through the SDK.
	before := c.Stats()
	start := time.Now()
	info, err := c.BeginRound(ctx, reqs)
	if err != nil {
		fatal(err)
	}
	for _, rows := range reqs {
		if _, err := c.Entries(ctx, info.RoundID, rows); err != nil {
			fatal(err)
		}
	}
	for _, rows := range reqs {
		grads := make([]api.GradientRequest, len(rows))
		for j, row := range rows {
			grads[j] = api.GradientRequest{Row: row, Grad: zero, Samples: 1}
		}
		if _, err := c.SubmitGradients(ctx, info.RoundID, grads); err != nil {
			fatal(err)
		}
	}
	if _, err := c.FinishRound(ctx, info.RoundID); err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	after := c.Stats()
	requests := int(after.Requests - before.Requests)

	fmt.Printf("bench: %d clients × %d rows = %d row transfers each way\n", clients, k, total)
	fmt.Printf("%d http requests, %v wall time\n", requests, elapsed.Round(time.Millisecond))

	// --- wire upload plane: drive the same round once per codec and
	// report what the gradient upload leg costs on the wire.
	runWireBench(ctx, c, st, reqs, len(row0), seed)
}

// runWireBench runs one round per wire codec over the bench's request
// set (zero deltas, one sample per row) and reports the gradient-upload
// bytes each codec puts on the wire. The masked codec uploads the FULL
// table per client, so it is skipped when the round's payloads would
// exceed 64 MB — point the bench at a smaller table (e.g. -fl-quick) to
// include it.
func runWireBench(ctx context.Context, c *client.Client, st api.StatusResponse, reqs [][]uint64, dim int, seed int64) {
	clients := len(reqs)
	// Per-client row sets must be strictly ascending and duplicate-free
	// for the upload plane; the union is the sparse codecs' domain.
	rows := make([][]uint64, clients)
	union := []uint64(nil)
	seen := map[uint64]bool{}
	for i, rq := range reqs {
		dedup := map[uint64]bool{}
		for _, r := range rq {
			dedup[r] = true
			seen[r] = true
		}
		rows[i] = make([]uint64, 0, len(dedup))
		for r := range dedup {
			rows[i] = append(rows[i], r)
		}
		sort.Slice(rows[i], func(a, b int) bool { return rows[i][a] < rows[i][b] })
	}
	for r := range seen {
		union = append(union, r)
	}
	sort.Slice(union, func(a, b int) bool { return union[a] < union[b] })

	fmt.Printf("\nwire upload plane (gradient leg, %d clients, zero deltas):\n", clients)
	fmt.Printf("%-22s %14s %14s\n", "codec", "upload bytes", "per client")
	for _, codec := range wire.Codecs() {
		if codec == wire.CodecMasked {
			if full := st.NumRows * uint64(dim+1) * 4 * uint64(clients); full > 64<<20 {
				fmt.Printf("%-22s %14s (full-table payloads would be %d MB)\n",
					string(codec), "skipped", full>>20)
				continue
			}
		}
		bytes, err := runWireBenchRound(ctx, c, st.NumRows, dim, codec, rows, union, seed)
		if err != nil {
			fatal(fmt.Errorf("wire bench %s: %w", codec, err))
		}
		fmt.Printf("%-22s %14d %14d\n", string(codec), bytes, bytes/uint64(clients))
	}
}

// runWireBenchRound drives one full upload-plane round: begin, encode
// and upload every client's payload, run the (dropout-free) unmasking
// round that applies the aggregate, and finish.
func runWireBenchRound(ctx context.Context, c *client.Client, numRows uint64, dim int, codec wire.Codec, rows [][]uint64, union []uint64, seed int64) (uint64, error) {
	info, err := c.BeginRound(ctx, rows)
	if err != nil {
		return 0, err
	}
	plan, err := wire.NewPlan(wire.Params{
		Codec:      codec,
		NumRows:    numRows,
		Dim:        dim,
		Round:      info.Round,
		Roster:     len(rows),
		SessionKey: wire.DeriveSessionKey(seed, info.Round),
	}, union)
	if err != nil {
		return 0, err
	}
	var total uint64
	for i, rs := range rows {
		deltas := make([][]float32, len(rs))
		for j := range deltas {
			deltas[j] = make([]float32, dim)
		}
		payload, _, err := plan.Encode(i, rs, deltas, 1)
		if err != nil {
			return 0, err
		}
		batchID := fmt.Sprintf("wire-bench-r%d-c%d", info.Round, i)
		if err := c.SubmitWireUpload(ctx, info.RoundID, batchID, payload); err != nil {
			return 0, err
		}
		total += uint64(len(payload))
	}
	// No dropouts: zero reveals, but the unmask round still applies the
	// reconstructed per-row sums into the server's round.
	if _, err := c.Unmask(ctx, info.RoundID, nil); err != nil {
		return 0, err
	}
	if _, err := c.FinishRound(ctx, info.RoundID); err != nil {
		return 0, err
	}
	return total, nil
}
