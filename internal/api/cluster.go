package api

// Cluster wire types — the JSON shapes the coordinator serves on
// /cluster/status and /cluster/join. They live in this package (not
// internal/cluster) because api is the repo's wire-shape package and
// the client SDK must decode them without importing the coordinator:
// cluster imports client and client imports api, so putting these in
// cluster would close an import cycle.

// ClusterNode describes one member of the coordinator's placement map:
// which contiguous shard slice (and therefore row range) it serves,
// whether it is live or fenced, and what the last health probe saw.
type ClusterNode struct {
	URL        string `json:"url"`
	FirstShard int    `json:"first_shard"`
	ShardCount int    `json:"shard_count"`
	FirstRow   uint64 `json:"first_row"`
	Rows       uint64 `json:"rows"`
	// State is "live" (routed to) or "fenced" (excluded after probe or
	// round-transport failures; its rows degrade until it recovers or a
	// replacement joins).
	State string `json:"state"`
	// Health is the member's own /healthz status from the last probe:
	// "healthy", "degraded", "unavailable", or "unreachable" when the
	// probe could not complete at all.
	Health string `json:"health,omitempty"`
	// Quarantined lists GLOBAL shard indices the member reports
	// quarantined.
	Quarantined []int `json:"quarantined,omitempty"`
	// Round is the member's local begun-round counter from the probe.
	Round uint64 `json:"round,omitempty"`
	// LastError is the most recent probe or round-transport failure that
	// fenced the node ("" while live).
	LastError string `json:"last_error,omitempty"`
}

// ClusterStatusResponse is the /cluster/status wire shape: the global
// geometry plus every placement.
type ClusterStatusResponse struct {
	// Shards and NumRows are the GLOBAL geometry the cluster serves.
	Shards  int    `json:"shards"`
	NumRows uint64 `json:"num_rows"`
	// Round is the coordinator's begun-round counter.
	Round uint64 `json:"round"`
	// Status mirrors the shard health vocabulary: "healthy" when every
	// node is live, "degraded" when some are fenced, "unavailable" when
	// all are.
	Status string        `json:"status"`
	Nodes  []ClusterNode `json:"nodes"`
	// LastCheckpointRound is the round the newest checkpoint this
	// coordinator wrote sealed (0 before the first). LastCheckpointError
	// is why the latest attempt failed, "" once one succeeds: a failed
	// checkpoint never fails a round, so this is where it shows.
	LastCheckpointRound uint64 `json:"last_checkpoint_round"`
	LastCheckpointError string `json:"last_checkpoint_error,omitempty"`
}

// ClusterJoinRequest registers a (possibly replacement) member with the
// coordinator: the URL it serves and the shard slice it was started
// with. The coordinator verifies the slice matches a fenced placement
// (or extends the map for a brand-new one), replays the quarantined
// shards' sections onto it, and unfences it.
type ClusterJoinRequest struct {
	URL        string `json:"url"`
	FirstShard int    `json:"first_shard"`
	ShardCount int    `json:"shard_count"`
}

// ClusterLeaderResponse is the GET /cluster/leader wire shape: which
// role this coordinator instance currently plays and under which epoch.
// A standby tails its peer with this call (it doubles as the
// heartbeat), the operator CLI prints it, and the SDK's failover can
// follow LeaderURL when a standby answers not_leader.
type ClusterLeaderResponse struct {
	// Role is "primary" (serving rounds) or "standby" (tailing the
	// primary, ready to promote).
	Role string `json:"role"`
	// Epoch is the instance's coordinator epoch — the fencing token its
	// member-facing calls carry. A standby reports the epoch it will
	// EXCEED when it promotes.
	Epoch uint64 `json:"epoch"`
	// LeaderURL is the best-known leader endpoint: the instance's own
	// advertised URL when primary, its peer's when standby.
	LeaderURL string `json:"leader_url,omitempty"`
	// Round is the coordinator's begun-round counter.
	Round uint64 `json:"round"`
}

// ClusterJoinResponse reports the outcome of a join.
type ClusterJoinResponse struct {
	Accepted bool `json:"accepted"`
	// Migrated lists GLOBAL shard indices whose sections were replayed
	// onto the joining node from the coordinator's newest checkpoint.
	Migrated []int  `json:"migrated,omitempty"`
	Message  string `json:"message,omitempty"`
}
