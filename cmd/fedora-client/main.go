// Command fedora-client is a CLI for the FEDORA serving API, built on
// the internal/client SDK (v2 protocol: batched transfers, retries
// with capped exponential backoff, idempotency keys).
//
//	fedora-client -server http://localhost:8080 status
//	fedora-client -server http://localhost:8080 round -requests "1,2,3;4,5"
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/client"
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
		fmt.Fprintln(os.Stderr, "subcommands: status | cluster | round -requests \"1,2,3;4,5\"")
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
