package api

import (
	"errors"
	"net/http"
	"strconv"
)

// Admin endpoints move raw checkpoint state over the wire — the
// transport half of cluster shard migration:
//
//	GET  /v2/admin/snapshot                  whole-controller snapshot
//	POST /v2/admin/restore                   whole-controller restore
//	GET  /v2/admin/shards/{shard}/snapshot   one shard's section (GLOBAL index)
//	POST /v2/admin/shards/{shard}/restore    replay one shard's section
//
// Bodies are raw application/octet-stream checkpoint blobs, not JSON:
// they are persist-framed (CRC-checked on decode) and can reach many
// megabytes. The restore endpoints force-quiesce any open round first —
// the caller is a coordinator re-syncing a member whose previous round
// was orphaned by a fence, so there is no graceful finish to wait for.
// The shard routes need the ShardPorter capability; a backend without it
// (a cluster coordinator) answers 501 there.

func (s *Server) handleAdminSnapshot(w http.ResponseWriter, r *http.Request) {
	blob, err := s.ctrl.Snapshot()
	if err != nil {
		errorReply(err, http.StatusInternalServerError, CodeInternal).write(w)
		return
	}
	writeBody(w, http.StatusOK, "application/octet-stream", blob)
}

func (s *Server) handleAdminRestore(w http.ResponseWriter, r *http.Request) {
	blob, ok := readRequestBody(w, r, MaxAdminBlob)
	if !ok {
		return
	}
	s.abortForRestore()
	if err := s.ctrl.Restore(blob); err != nil {
		errorReply(err, http.StatusInternalServerError, CodeInternal).write(w)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]bool{"restored": true})
}

func (s *Server) handleAdminShardSnapshot(w http.ResponseWriter, r *http.Request) {
	porter, ok := s.ctrl.(ShardPorter)
	if !ok {
		writeError(w, http.StatusNotImplemented, CodeUnsupported, "backend does not support shard export")
		return
	}
	global, aerr := adminShardIndex(r, porter)
	if aerr != nil {
		aerr.write(w)
		return
	}
	blob, err := porter.SnapshotShard(global)
	if err != nil {
		errorReply(err, http.StatusInternalServerError, CodeInternal).write(w)
		return
	}
	writeBody(w, http.StatusOK, "application/octet-stream", blob)
}

func (s *Server) handleAdminShardRestore(w http.ResponseWriter, r *http.Request) {
	porter, ok := s.ctrl.(ShardPorter)
	if !ok {
		writeError(w, http.StatusNotImplemented, CodeUnsupported, "backend does not support shard export")
		return
	}
	global, aerr := adminShardIndex(r, porter)
	if aerr != nil {
		aerr.write(w)
		return
	}
	blob, ok := readRequestBody(w, r, MaxAdminBlob)
	if !ok {
		return
	}
	s.abortForRestore()
	if err := porter.RestoreShard(global, blob); err != nil {
		errorReply(err, http.StatusInternalServerError, CodeInternal).write(w)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{"restored": true, "shard": global})
}

// adminShardIndex parses {shard} and checks it against the backend's
// slice.
func adminShardIndex(r *http.Request, porter ShardPorter) (int, *apiError) {
	global, err := strconv.Atoi(r.PathValue("shard"))
	if err != nil {
		return 0, errf(http.StatusBadRequest, CodeInvalidArgument, "bad shard: %s", err.Error())
	}
	first, count := porter.ShardRange()
	if global < first || global >= first+count {
		return 0, errf(http.StatusNotFound, CodeNotFound,
			"shard %d outside served slice [%d,%d)", global, first, first+count)
	}
	return global, nil
}

// abortForRestore force-closes the server's round bookkeeping and the
// backend's round state so a restore finds everything quiesced. Safe
// with no round open.
func (s *Server) abortForRestore() {
	s.abortOpenRound("round aborted by admin restore")
}

// abortOpenRound force-finishes the current round (if any) with the
// given failure message and aborts the backend's round state. Shared by
// the admin restore path and the epoch fence (a newer coordinator
// supersedes the round's owner).
func (s *Server) abortOpenRound(msg string) {
	s.mu.Lock()
	if sr := s.current; sr != nil {
		sr.finished = true
		sr.round = nil
		sr.finishErr = errors.New(msg)
		if sr.timer != nil {
			sr.timer.Stop()
			sr.timer = nil
		}
		s.current = nil
	}
	s.mu.Unlock()
	s.ctrl.AbortRound()
}
