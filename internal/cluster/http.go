package cluster

import (
	"fmt"
	"net/http"
	"strings"

	"repro/internal/api"
	"repro/internal/persist"
	"repro/internal/shard"
)

// The coordinator's own routes sit NEXT TO the api.Server routes (the
// command mounts both on one mux): /cluster/status exposes the
// placement map with per-node health, /cluster/join lets a replacement
// member register and pull its shards. Everything round-shaped still
// goes through the api.Server fronting the Coordinator as its
// Controller.

// RegisterRoutes mounts the cluster control routes on mux.
func (c *Coordinator) RegisterRoutes(mux *http.ServeMux) {
	mux.HandleFunc("GET /cluster/status", c.handleStatus)
	mux.HandleFunc("POST /cluster/join", c.handleJoin)
}

// Status assembles the placement map with fresh member probes — the
// operator's fan-out view, where /healthz is a read of the member view —
// once the checkpoint save in flight, if any, has finished: its
// checkpoint fields report the newest completed save.
func (c *Coordinator) Status() api.ClusterStatusResponse {
	c.WaitSaved()
	c.probeAll()
	c.mu.Lock()
	defer c.mu.Unlock()
	resp := api.ClusterStatusResponse{
		Shards:  c.shards,
		NumRows: c.numRows,
		Round:   c.round,

		LastCheckpointRound: c.lastCkptRound,
		LastCheckpointError: c.lastCkptErr,
	}
	fencedN := 0
	for _, m := range c.members {
		node := api.ClusterNode{
			URL:        m.spec.URL,
			FirstShard: m.spec.First,
			ShardCount: m.spec.Count,
			FirstRow:   m.rowBase,
			Rows:       m.rows,
			State:      "live",
			LastError:  m.lastErr,
		}
		if m.fenced {
			node.State = "fenced"
			node.Health = "unreachable"
			fencedN++
		} else {
			node.Health = string(m.health.Status)
			node.Round = m.health.Round
			for _, sh := range c.shardView(m) {
				if sh.Quarantined {
					node.Quarantined = append(node.Quarantined, sh.Shard)
				}
			}
		}
		resp.Nodes = append(resp.Nodes, node)
	}
	resp.Status = string(shard.Rollup(fencedN, len(c.members)))
	return resp
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, c.Status())
}

// Join registers a (replacement) member. The slice must match an
// existing placement exactly — the balanced partition pins every
// shard's row range, so a different split cannot serve the same state.
// When the coordinator is durable (Config.Manager), the node's shards
// are migrated onto it from the newest checkpoint and it goes live;
// otherwise it is registered fenced and the next recovery pass (an
// operator restore) migrates state onto it. A checkpoint save in flight
// finishes first.
func (c *Coordinator) Join(req api.ClusterJoinRequest) (api.ClusterJoinResponse, error) {
	c.WaitSaved()
	if req.URL == "" {
		return api.ClusterJoinResponse{Message: "url required"}, nil
	}
	n := -1
	for i, m := range c.members {
		if m.spec.First == req.FirstShard && m.spec.Count == req.ShardCount {
			n = i
			break
		}
	}
	if n < 0 {
		return api.ClusterJoinResponse{
			Message: fmt.Sprintf("no placement serves shards [%d,%d); placements are fixed at coordinator start",
				req.FirstShard, req.FirstShard+req.ShardCount),
		}, nil
	}

	// Swap the member's endpoint. The node joins FENCED: it holds no
	// state yet, so routing to it before migration would serve a blank
	// table.
	spec := c.members[n].spec
	spec.URL = strings.TrimRight(req.URL, "/")
	nm, err := c.newMember(spec)
	if err != nil {
		return api.ClusterJoinResponse{}, err
	}
	c.mu.Lock()
	old := c.members[n]
	nm.fenced = true
	nm.lastErr = "joined, awaiting shard migration"
	if !old.fenced {
		c.quarantines++ // replacing a live node fences the placement first
	}
	c.members[n] = nm
	// Re-stamp inside the critical section: a SetEpoch racing this join
	// either already stored the epoch we read here, or will iterate the
	// swapped-in member after we unlock — both leave nm fenced at the
	// newest epoch.
	nm.cli.SetEpoch(c.epoch.Load())
	c.mu.Unlock()

	if c.mgr == nil {
		return api.ClusterJoinResponse{
			Accepted: true,
			Message:  "registered; no checkpoint source configured, awaiting recovery pass",
		}, nil
	}
	blob, _, _, err := c.mgr.LoadSection(persist.ControllerSection)
	if err != nil {
		return api.ClusterJoinResponse{
			Accepted: true,
			Message:  fmt.Sprintf("registered; checkpoint unavailable (%v), awaiting recovery pass", err),
		}, nil
	}
	recovered, err := c.RecoverQuarantined(blob)
	if err != nil {
		return api.ClusterJoinResponse{}, fmt.Errorf("migrate onto %s: %w", req.URL, err)
	}
	// Report only this node's shards (a recovery pass may have healed
	// others along the way).
	var migrated []int
	for _, g := range recovered {
		if g >= spec.First && g < spec.First+spec.Count {
			migrated = append(migrated, g)
		}
	}
	return api.ClusterJoinResponse{Accepted: true, Migrated: migrated,
		Message: fmt.Sprintf("migrated %d shard(s)", len(migrated))}, nil
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req api.ClusterJoinRequest
	if !api.DecodeJSONBody(w, r, &req) {
		return
	}
	resp, err := c.Join(req)
	if err != nil {
		api.WriteJSON(w, http.StatusInternalServerError, api.ErrorEnvelope{Error: api.ErrorBody{
			Code: api.CodeInternal, Message: err.Error()}})
		return
	}
	status := http.StatusOK
	if !resp.Accepted {
		status = http.StatusConflict
	}
	api.WriteJSON(w, status, resp)
}
