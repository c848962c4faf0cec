package server

import (
	"net/http"

	"repro/internal/replicate"
)

// registerReplication wires the replication control surface. The routes are
// always registered — the OpenAPI contract does not depend on flags — but
// respond 503 when the shard runs without a journal (nothing to replicate).
//
//	GET  /v2/replication/status                      roles, fences, stream + standby watermarks
//	PUT  /v2/replication/role                        router-pushed role assignment
//	POST /v2/replication/datasets/{dataset}/events   inbound replication batch (primary → follower)
//	POST /v2/replication/promote                     serve a dataset from the warm standby
func (s *Server) registerReplication() {
	s.handle("GET /v2/replication/status", s.handleReplStatus)
	s.handle("PUT /v2/replication/role", s.handleReplRole)
	s.handle("POST /v2/replication/datasets/{dataset}/events", s.handleReplEvents)
	s.handle("POST /v2/replication/promote", s.handleReplPromote)
}

// replNode returns the replication node, or writes the 503 every replication
// endpoint shares when the shard has no journal.
func (s *Server) replNode(w http.ResponseWriter) (*replicate.Node, bool) {
	if s.repl == nil {
		writeJSON(w, http.StatusServiceUnavailable, replicate.WireError{
			Error:   "unavailable",
			Message: "replication requires a journal (-journal)",
		})
		return nil, false
	}
	return s.repl, true
}

func writeReplError(w http.ResponseWriter, err error) {
	status, we := replicate.WireFor(err)
	writeJSON(w, status, we)
}

func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	node, ok := s.replNode(w)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, node.Status())
}

func (s *Server) handleReplRole(w http.ResponseWriter, r *http.Request) {
	node, ok := s.replNode(w)
	if !ok {
		return
	}
	var doc replicate.RoleDoc
	if err := decodeBody(r, &doc); err != nil {
		writeJSON(w, http.StatusBadRequest, replicate.WireError{Error: "invalid", Message: "invalid JSON body: " + err.Error()})
		return
	}
	if err := node.SetRole(doc); err != nil {
		writeReplError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleReplEvents(w http.ResponseWriter, r *http.Request) {
	node, ok := s.replNode(w)
	if !ok {
		return
	}
	var b replicate.Batch
	if err := decodeBody(r, &b); err != nil {
		writeJSON(w, http.StatusBadRequest, replicate.WireError{Error: "invalid", Message: "invalid JSON body: " + err.Error()})
		return
	}
	ack, err := node.ReceiveBatch(r.PathValue("dataset"), b)
	if err != nil {
		writeReplError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ack)
}

func (s *Server) handleReplPromote(w http.ResponseWriter, r *http.Request) {
	node, ok := s.replNode(w)
	if !ok {
		return
	}
	var req replicate.PromoteRequest
	if err := decodeBody(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, replicate.WireError{Error: "invalid", Message: "invalid JSON body: " + err.Error()})
		return
	}
	resp, err := node.Promote(req)
	if err != nil {
		writeReplError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
