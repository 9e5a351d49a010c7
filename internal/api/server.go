// Package api exposes a FEDORA controller over HTTP, turning the
// simulator into a runnable service: an FL orchestrator starts rounds,
// clients download their embedding rows, upload gradients, and the
// orchestrator finishes the round. The control plane is JSON, rows
// travel as binary row frames (rowframe.go); stdlib only.
//
// One protocol is served, and internal/client is its only client:
//
//	/v2/...    per-round IDs, batched entry and gradient transfers,
//	           idempotent begin/upload/finish, round deadlines, JSON
//	           error envelopes (see v2.go and docs/API.md)
//	/metrics   Prometheus text format: controller counters plus
//	           per-endpoint request counters and latency histograms
//
// What a caller may learn about a round is what the ε-FDP adversary
// already observes — K, the noised access count k_sampled, ε. The counts
// the mechanism noises never leave the controller through this package,
// in a JSON body or on /metrics (see RoundStatsJSON).
//
// The row a client asks for is visible to this HTTP layer, exactly as a
// client's download request is visible to the FEDORA controller in the
// paper — the protections (ORAM + ε-FDP) bound what the *storage side*
// and the access *counts* reveal, not the serving channel, which in the
// real deployment is inside the TEE.
//
// Paper mapping: an HTTP facade over the Sec 4 round pipeline (Fig 4
// steps ①–⑦) — it adds no privacy machinery of its own. Key
// invariants: at most one round is in flight (a second begin is
// rejected 409 until the current one finishes, mirroring the
// controller's ErrRoundInProgress), and handlers never touch controller
// internals except through the same concurrency-safe entry points the
// FL trainer uses. The server mutex guards only the server's own round
// bookkeeping — controller calls (BeginRound, Finish, stats getters)
// always run outside it, so status and metrics stay readable while a
// round is being served and batched downloads fan out across shards in
// parallel.
package api

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fedora"
	"repro/internal/persist"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/wire"
)

// Server wraps a controller with HTTP handlers.
type Server struct {
	ctrl            Controller
	met             *httpMetrics
	defaultDeadline time.Duration

	// Wire upload plane (wire.go): codec policy plus lifetime counters
	// surfaced on /metrics.
	uploadPolicy wire.Codec
	wireBytes    atomic.Uint64
	wireSats     atomic.Uint64
	wireUploads  map[wire.Codec]*atomic.Uint64

	// Overload protection (WithMaxInFlight): a semaphore bounding
	// concurrent round operations; nil = unlimited.
	inflight chan struct{}
	shed     atomic.Uint64 // requests rejected by overload protection

	// Epoch fence (epoch.go): the highest coordinator epoch seen on an
	// X-Fedora-Epoch header; round/admin requests from lower epochs are
	// rejected with 409 stale_epoch.
	fencedEpoch atomic.Uint64

	// Auto-recovery (WithAutoRecover). recoverMu serializes checkpoint
	// and recovery work; it is never held while serving round traffic.
	recoverMgr   *persist.Manager
	recoverEvery int
	recoverMu    sync.Mutex
	lastEpoch    uint64
	recoverErr   string

	mu        sync.Mutex
	current   *serverRound            // open round (nil between rounds)
	beginning bool                    // a begin is in flight (controller side)
	rounds    map[string]*serverRound // id → round, bounded history
	order     []string                // ids oldest-first (for pruning)
	byKey     map[string]string       // round_key → id (begin idempotency)
	roundSeq  uint64                  // id allocator
}

// Option configures a Server.
type Option func(*Server)

// WithDefaultDeadline sets a deadline applied to every round that does
// not request its own: past it the server finishes the round with
// whatever gradients arrived. Zero (the default) means no deadline.
func WithDefaultDeadline(d time.Duration) Option {
	return func(s *Server) { s.defaultDeadline = d }
}

// NewServer wraps an in-process fedora controller.
func NewServer(ctrl *fedora.Controller, opts ...Option) *Server {
	return NewServerFor(fedoraController{ctrl}, opts...)
}

// NewServerFor wraps any Controller implementation — an in-process
// fedora controller (use NewServer) or a cluster coordinator fronting
// member processes.
func NewServerFor(ctrl Controller, opts ...Option) *Server {
	s := &Server{
		ctrl:        ctrl,
		met:         newHTTPMetrics(),
		rounds:      make(map[string]*serverRound),
		byKey:       make(map[string]string),
		wireUploads: make(map[wire.Codec]*atomic.Uint64),
	}
	for _, c := range wire.Codecs() {
		s.wireUploads[c] = new(atomic.Uint64)
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.recoverMgr != nil {
		s.bootstrapRecover()
	}
	return s
}

// Handler returns the routed HTTP handler (v2, /healthz, /metrics).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()

	// v2: method-scoped routes; a bare-path twin turns wrong-verb hits
	// into the JSON 405 envelope (the method-specific pattern is more
	// specific, so it wins for the right verb).
	v2 := []struct {
		pattern string // method-scoped
		bare    string // same path, any method
		allow   string
		handler http.HandlerFunc
		name    string
	}{
		{"GET /v2/status", "/v2/status", "GET", s.handleStatusV2, "v2_status"},
		{"POST /v2/rounds", "/v2/rounds", "POST", s.epochGate(s.limit(s.handleBeginV2)), "v2_begin"},
		{"GET /v2/rounds/{id}", "/v2/rounds/{id}", "GET", s.handleRoundInfoV2, "v2_round_info"},
		{"POST /v2/rounds/{id}/entries", "/v2/rounds/{id}/entries", "POST", s.epochGate(s.limit(s.handleEntriesV2)), "v2_entries"},
		{"POST /v2/rounds/{id}/gradients", "/v2/rounds/{id}/gradients", "POST", s.epochGate(s.limit(s.handleGradientsV2)), "v2_gradients"},
		{"POST /v2/rounds/{id}/stage", "/v2/rounds/{id}/stage", "POST", s.epochGate(s.limit(s.handleStageV2)), "v2_stage"},
		{"POST /v2/rounds/{id}/unmask", "/v2/rounds/{id}/unmask", "POST", s.epochGate(s.limit(s.handleUnmaskV2)), "v2_unmask"},
		{"POST /v2/rounds/{id}/finish", "/v2/rounds/{id}/finish", "POST", s.epochGate(s.limit(s.handleFinishV2)), "v2_finish"},
		{"GET /v2/rows/{row}", "/v2/rows/{row}", "GET", s.handleRowV2, "v2_row"},
		{"GET /v2/admin/snapshot", "/v2/admin/snapshot", "GET", s.epochGate(s.handleAdminSnapshot), "v2_admin_snapshot"},
		{"POST /v2/admin/restore", "/v2/admin/restore", "POST", s.epochGate(s.handleAdminRestore), "v2_admin_restore"},
		{"GET /v2/admin/shards/{shard}/snapshot", "/v2/admin/shards/{shard}/snapshot", "GET", s.epochGate(s.handleAdminShardSnapshot), "v2_admin_shard_snapshot"},
		{"POST /v2/admin/shards/{shard}/restore", "/v2/admin/shards/{shard}/restore", "POST", s.epochGate(s.handleAdminShardRestore), "v2_admin_shard_restore"},
	}
	for _, r := range v2 {
		mux.HandleFunc(r.pattern, s.met.instrument(r.name, r.handler))
		mux.HandleFunc(r.bare, s.met.instrument(r.name, methodNotAllowed(r.allow)))
	}
	mux.HandleFunc("/v2/", s.handleV2Fallback)

	mux.HandleFunc("/healthz", s.met.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// StatusResponse reports controller configuration and device traffic.
// SSD byte counters aggregate across all shards when sharded.
type StatusResponse struct {
	Backend         string `json:"backend"`
	Shards          int    `json:"shards"`
	NumRows         uint64 `json:"num_rows"`
	Round           uint64 `json:"round"`
	RoundInProgress bool   `json:"round_in_progress"`
	CurrentRoundID  string `json:"current_round_id,omitempty"`
	// UploadCodec advertises the server's upload-plane policy ("" =
	// any codec accepted, and plain gradient frames too).
	UploadCodec      string `json:"upload_codec,omitempty"`
	EffectiveEpsilon string `json:"effective_epsilon"`
	MainORAMBytes    uint64 `json:"main_oram_bytes"`
	DRAMBytes        uint64 `json:"dram_bytes"`
	SSDBytesRead     uint64 `json:"ssd_bytes_read"`
	SSDBytesWritten  uint64 `json:"ssd_bytes_written"`
}

// statusSnapshot reads the server round state under the mutex, then
// queries the controller OUTSIDE it (the getters are concurrency-safe;
// holding the server mutex across them would block round operations).
func (s *Server) statusSnapshot() StatusResponse {
	s.mu.Lock()
	inProgress := s.current != nil || s.beginning
	curID := ""
	if s.current != nil {
		curID = s.current.id
	}
	s.mu.Unlock()

	ssd := s.ctrl.SSDStats()
	return StatusResponse{
		Backend:          s.ctrl.BackendName(),
		Shards:           s.ctrl.Shards(),
		NumRows:          s.ctrl.NumRows(),
		Round:            s.ctrl.Round(),
		RoundInProgress:  inProgress,
		CurrentRoundID:   curID,
		UploadCodec:      string(s.uploadPolicy),
		EffectiveEpsilon: strconv.FormatFloat(s.ctrl.EffectiveEpsilon(), 'g', -1, 64),
		MainORAMBytes:    s.ctrl.MainORAMBytes(),
		DRAMBytes:        s.ctrl.DRAMResidentBytes(),
		SSDBytesRead:     ssd.BytesRead,
		SSDBytesWritten:  ssd.BytesWritten,
	}
}

// RoundStatsJSON is the public part of fedora.RoundStats: what the
// ε-FDP adversary observes anyway (K, the noised access count, chunks,
// ε) plus timings and upload accounting. The counts the mechanism
// noises — KUnion, Dummy, Lost, CrossChunkDup — and the prefetch
// hit/waste counters (their sum is KSampled − Dummy) have no field here
// on purpose; in-process callers read them off fedora.RoundStats.
type RoundStatsJSON struct {
	K        int `json:"k_total"`
	KSampled int `json:"k_sampled"`
	Chunks   int `json:"chunks"`
	// RoundEpsilon is a string because ε may be +Inf, which JSON numbers
	// cannot represent. The 'g'/-1 formatting round-trips float64
	// exactly, so remote trainers accumulate the same ε as local ones.
	RoundEpsilon  string `json:"round_epsilon"`
	TotalOverhead string `json:"total_overhead"`
	// Wall-clock phase durations in nanoseconds (what a remote trainer
	// reports in its per-round timing breakdown). With Prefetched set,
	// ReadWallNS counts only BLOCKING read time; the fetch itself ran
	// concurrently for PrefetchWallNS, and EvictWallNS drained the
	// previous round's deferred write-backs (see fedora.RoundStats).
	UnionWallNS  int64 `json:"union_wall_ns"`
	ReadWallNS   int64 `json:"read_wall_ns"`
	FinishWallNS int64 `json:"finish_wall_ns"`
	// Lookahead prefetch accounting (zero / absent in sync mode).
	Prefetched     bool  `json:"prefetched,omitempty"`
	PrefetchWallNS int64 `json:"prefetch_wall_ns,omitempty"`
	EvictWallNS    int64 `json:"evict_wall_ns,omitempty"`
	EvictNS        int64 `json:"evict_ns,omitempty"`
	// Wire upload plane accounting (zero when gradients came as row
	// frames).
	WireBytes   uint64 `json:"wire_bytes,omitempty"`
	Saturations int    `json:"saturations,omitempty"`
}

func statsJSON(st fedora.RoundStats) RoundStatsJSON {
	return RoundStatsJSON{
		K: st.K, KSampled: st.KSampled, Chunks: st.Chunks,
		RoundEpsilon:   strconv.FormatFloat(st.RoundEpsilon, 'g', -1, 64),
		TotalOverhead:  st.Total().String(),
		UnionWallNS:    st.UnionWallTime.Nanoseconds(),
		ReadWallNS:     st.ReadWallTime.Nanoseconds(),
		FinishWallNS:   st.FinishWallTime.Nanoseconds(),
		Prefetched:     st.Prefetched,
		PrefetchWallNS: st.PrefetchWallTime.Nanoseconds(),
		EvictWallNS:    st.EvictWallTime.Nanoseconds(),
		EvictNS:        st.EvictTime.Nanoseconds(),
		WireBytes:      st.WireBytes,
		Saturations:    st.Saturations,
	}
}

// Stats converts the wire shape back to fedora.RoundStats (the fields
// the FL trainer consumes; the secret counts, modelled per-phase device
// times and the per-shard breakdown do not cross the wire and read 0).
func (j RoundStatsJSON) Stats() (fedora.RoundStats, error) {
	eps, err := strconv.ParseFloat(j.RoundEpsilon, 64)
	if err != nil {
		return fedora.RoundStats{}, fmt.Errorf("api: round_epsilon %q: %w", j.RoundEpsilon, err)
	}
	return shard.RoundStats{
		K: j.K, KSampled: j.KSampled, Chunks: j.Chunks,
		RoundEpsilon:     eps,
		UnionWallTime:    time.Duration(j.UnionWallNS),
		ReadWallTime:     time.Duration(j.ReadWallNS),
		FinishWallTime:   time.Duration(j.FinishWallNS),
		Prefetched:       j.Prefetched,
		PrefetchWallTime: time.Duration(j.PrefetchWallNS),
		EvictWallTime:    time.Duration(j.EvictWallNS),
		EvictTime:        time.Duration(j.EvictNS),
		WireBytes:        j.WireBytes,
		Saturations:      j.Saturations,
	}, nil
}

// The row types of the SDK's calls are the controller's own; the names
// the JSON protocol gave them stay as aliases for its callers.
type (
	EntryResponse    = fedora.EntryResult
	GradientRequest  = fedora.RowGradient
	AggregateRequest = fedora.RowAggregate
)

// handleMetrics exposes Prometheus-style counters (text format):
// controller/device counters plus per-endpoint HTTP request counters
// and latency histograms. The server mutex is held only long enough to
// snapshot the round state, so metrics stay readable mid-round.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	s.mu.Lock()
	inProgress := 0
	if s.current != nil || s.beginning {
		inProgress = 1
	}
	s.mu.Unlock()

	ssd := s.ctrl.SSDStats()
	dram := s.ctrl.DRAMStats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	lines := []struct {
		name  string
		kind  string
		value string
	}{
		{"fedora_rounds_total", "counter", strconv.FormatUint(s.ctrl.Round(), 10)},
		{"fedora_round_in_progress", "gauge", strconv.Itoa(inProgress)},
		{"fedora_shards", "gauge", strconv.Itoa(s.ctrl.Shards())},
		{"fedora_ssd_bytes_read_total", "counter", strconv.FormatUint(ssd.BytesRead, 10)},
		{"fedora_ssd_bytes_written_total", "counter", strconv.FormatUint(ssd.BytesWritten, 10)},
		{"fedora_dram_bytes_read_total", "counter", strconv.FormatUint(dram.BytesRead, 10)},
		{"fedora_dram_bytes_written_total", "counter", strconv.FormatUint(dram.BytesWritten, 10)},
		{"fedora_ssd_busy_seconds_total", "counter", strconv.FormatFloat(ssd.BusyTime.Seconds(), 'g', -1, 64)},
		{"fedora_requests_shed_total", "counter", strconv.FormatUint(s.shed.Load(), 10)},
		{"fedora_wire_bytes_total", "counter", strconv.FormatUint(s.wireBytes.Load(), 10)},
		{"fedora_wire_saturations_total", "counter", strconv.FormatUint(s.wireSats.Load(), 10)},
	}
	for _, l := range lines {
		fmt.Fprintf(w, "# TYPE %s %s\n%s %s\n", l.name, l.kind, l.name, l.value)
	}
	fmt.Fprintf(w, "# TYPE fedora_wire_uploads_total counter\n")
	for _, c := range wire.Codecs() {
		fmt.Fprintf(w, "fedora_wire_uploads_total{codec=%q} %d\n", string(c), s.wireUploads[c].Load())
	}
	// Real-I/O telemetry, present only when the controller's main device
	// is file-backed: measured (not modelled) latency quantiles per device.
	if reps := s.ctrl.StorageReports(); len(reps) > 0 {
		fmt.Fprintf(w, "# TYPE fedora_storage_fsyncs_total counter\n")
		for _, rep := range reps {
			fmt.Fprintf(w, "fedora_storage_fsyncs_total{device=%q} %d\n", rep.Name, rep.Fsyncs)
		}
		fmt.Fprintf(w, "# TYPE fedora_storage_dirty_pages gauge\n")
		for _, rep := range reps {
			fmt.Fprintf(w, "fedora_storage_dirty_pages{device=%q} %d\n", rep.Name, rep.DirtyPages)
		}
		fmt.Fprintf(w, "# TYPE fedora_storage_direct gauge\n")
		for _, rep := range reps {
			direct := 0
			if rep.Direct {
				direct = 1
			}
			fmt.Fprintf(w, "fedora_storage_direct{device=%q} %d\n", rep.Name, direct)
		}
		fmt.Fprintf(w, "# TYPE fedora_storage_op_seconds summary\n")
		for _, rep := range reps {
			ops := []struct {
				op  string
				sum storage.LatencySummary
			}{{"read", rep.Read}, {"write", rep.Write}}
			for _, o := range ops {
				op, sum := o.op, o.sum
				fmt.Fprintf(w, "fedora_storage_op_seconds{device=%q,op=%q,quantile=\"0.5\"} %g\n", rep.Name, op, sum.P50.Seconds())
				fmt.Fprintf(w, "fedora_storage_op_seconds{device=%q,op=%q,quantile=\"0.95\"} %g\n", rep.Name, op, sum.P95.Seconds())
				fmt.Fprintf(w, "fedora_storage_op_seconds{device=%q,op=%q,quantile=\"0.99\"} %g\n", rep.Name, op, sum.P99.Seconds())
				fmt.Fprintf(w, "fedora_storage_op_seconds_count{device=%q,op=%q} %d\n", rep.Name, op, sum.Count)
			}
		}
	}
	s.met.render(w)
}
