// Package replicate streams a darwind shard's workspace journal to a
// follower shard and applies it there to a warm standby, so the router can
// fail a dataset over instead of degrading it when its primary dies.
//
// # Design
//
// The journal (internal/journal) is already a pure, replayable event
// sequence: workspace state is a deterministic function of (engine, event
// order). Replication is therefore "ship the log, replay on the other
// side":
//
//   - The primary runs a Tap: one goroutine per assigned dataset tails the
//     live journal (journal.Follower), filters the dataset's events, and
//     POSTs them in order to the follower's replication endpoint. Every
//     batch is stamped with the stream's epoch and the journal generation.
//   - The follower runs a Receiver: per dataset it keeps a warm standby —
//     a volatile workspace.Manager fed through the same Replayer recovery
//     path used at startup — plus a standby journal on disk so the warmth
//     survives follower restarts. It acks a batch once the batch is in the
//     standby journal and applies it behind the ack.
//   - On promotion the standby's workspaces are adopted into the live
//     manager (journaled as snapshot events) and served immediately; the
//     dataset's fence is ratcheted to the new epoch so a zombie
//     ex-primary's late batches are rejected, durably, across restarts and
//     compactions.
//
// Epochs are owned by the router (internal/shard): it bumps the epoch on
// every promotion and pushes role assignments to both sides. Streams always
// begin with a Reset batch that rebuilds the standby from sequence 0 —
// catch-up resync after a partition heals is the same code path as a fresh
// assignment.
//
// With synchronous replication enabled (NodeOptions.Sync), the primary's
// manager barrier blocks each acknowledged state change until the follower
// has journaled the event's sequence (or the sync timeout degrades the
// wait), which upgrades "acknowledged" to "survives primary loss".
package replicate

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
)

// Replication telemetry. Lag and standby size are per dataset; fencing and
// promotions are the failover audit trail.
var (
	replLag = obs.Default().GaugeVec("darwin_replication_lag_events",
		"Journal events appended on the primary and not yet acked by the follower, by dataset.", "dataset")
	replShipped = obs.Default().CounterVec("darwin_replication_shipped_events_total",
		"Journal events shipped to the follower, by dataset.", "dataset")
	replApplied = obs.Default().CounterVec("darwin_replication_applied_events_total",
		"Replicated events applied to the warm standby, by dataset; counted when applied, which follows the ack.", "dataset")
	replStreamErrors = obs.Default().CounterVec("darwin_replication_stream_errors_total",
		"Replication stream send failures (the stream restarts with a resync), by dataset.", "dataset")
	replFenced = obs.Default().Counter("darwin_replication_fenced_batches_total",
		"Replication batches rejected because their epoch is below the dataset's fence.")
	replResyncs = obs.Default().Counter("darwin_replication_resyncs_total",
		"Full stream resyncs (fresh assignments, catch-ups after errors, and journal compactions).")
	replPromotions = obs.Default().Counter("darwin_replication_promotions_total",
		"Standby promotions performed by this shard (it became the dataset's primary).")
	replStandbyWS = obs.Default().GaugeVec("darwin_replication_standby_workspaces",
		"Workspaces held warm in the replication standby, by dataset.", "dataset")
	replSyncWait = obs.Default().Histogram("darwin_replication_sync_wait_seconds",
		"Time acknowledged state changes waited for the follower to journal their events (sync replication).",
		obs.LatencyBuckets)
	replSyncTimeouts = obs.Default().Counter("darwin_replication_sync_timeouts_total",
		"Sync-replication barrier waits that hit the timeout and degraded to async.")
)

// Stream-protocol sentinels, carried over the wire as {"error": code}.
var (
	// ErrFenced rejects a batch whose epoch is below the dataset's fence:
	// the sender is a zombie ex-primary and must stop.
	ErrFenced = errors.New("replicate: epoch fenced")
	// ErrResync rejects a batch that does not extend the standby
	// contiguously; the sender restarts its stream from sequence 0.
	ErrResync = errors.New("replicate: resync required")
)

// FollowerSpec addresses the shard a primary streams a dataset to.
type FollowerSpec struct {
	Name  string `json:"name"`
	URL   string `json:"url"`
	Token string `json:"token,omitempty"`
}

// RoleDoc is a router-pushed replication role assignment for one dataset.
type RoleDoc struct {
	Dataset string `json:"dataset"`
	// Epoch is the placement epoch the role is valid for. Fences compare
	// against it: batches below a dataset's fence are rejected.
	Epoch uint64 `json:"epoch"`
	// Role is "primary" (stream to Follower), "follower" (receive and keep
	// a warm standby) or "none" (stop participating).
	Role string `json:"role"`
	// Follower is where a primary streams to (required for role "primary").
	Follower *FollowerSpec `json:"follower,omitempty"`
}

// Role values.
const (
	RolePrimary  = "primary"
	RoleFollower = "follower"
	RoleNone     = "none"
)

// Batch is one ordered slice of the primary's journal, filtered to a
// dataset. From/Upto are journal sequence numbers within generation Gen:
// Upto advances even when Events is empty (other datasets' events occupy
// those sequences), which is what lets the sync barrier release.
type Batch struct {
	Epoch uint64 `json:"epoch"`
	Gen   uint64 `json:"gen"`
	// Reset discards the standby and rebuilds from this batch on; every
	// stream session opens with one.
	Reset  bool            `json:"reset,omitempty"`
	From   uint64          `json:"from"`
	Upto   uint64          `json:"upto"`
	Events []journal.Event `json:"events,omitempty"`
}

// BatchAck acknowledges a batch: everything up to Upto is appended to the
// follower's standby journal. The standby applies it behind the ack.
type BatchAck struct {
	Upto uint64 `json:"upto"`
}

// PromoteRequest asks a follower to serve a dataset from its standby.
type PromoteRequest struct {
	Dataset string `json:"dataset"`
	Epoch   uint64 `json:"epoch"`
}

// PromoteResponse reports what the promotion brought live, so the router
// can re-home existing "<shard>~<id>" handles onto the new primary.
type PromoteResponse struct {
	Dataset string `json:"dataset"`
	Epoch   uint64 `json:"epoch"`
	// Workspaces are the adopted workspace IDs now served by this shard.
	Workspaces []string `json:"workspaces,omitempty"`
	// Labelers are the re-derived attachment labeler IDs for those
	// workspaces (deterministic per (workspace, annotator)).
	Labelers []string `json:"labelers,omitempty"`
}

// DatasetStatus is one dataset's replication state on one shard.
type DatasetStatus struct {
	Dataset string `json:"dataset"`
	Role    string `json:"role"`
	Epoch   uint64 `json:"epoch"`
	// Primary-side stream state.
	Follower  string `json:"follower,omitempty"`
	AckedUpto uint64 `json:"acked_upto,omitempty"`
	Lag       uint64 `json:"lag,omitempty"`
	Healthy   bool   `json:"healthy,omitempty"`
	// Follower-side standby state.
	StandbyUpto       uint64 `json:"standby_upto,omitempty"`
	StandbyWorkspaces int    `json:"standby_workspaces,omitempty"`
	// Live serving state for primaries: what the router needs to rebuild
	// its re-home table after a restart.
	Workspaces []string `json:"workspaces,omitempty"`
	Labelers   []string `json:"labelers,omitempty"`
}

// Status is a shard's full replication state.
type Status struct {
	Fences   map[string]uint64 `json:"fences,omitempty"`
	Datasets []DatasetStatus   `json:"datasets,omitempty"`
}

// WireError is the replication endpoints' error envelope. Error carries the
// protocol code ("fenced", "resync") that the sending side dispatches on.
type WireError struct {
	Error   string `json:"error"`
	Message string `json:"message,omitempty"`
}

// WireFor maps a replication error to (HTTP status, envelope).
func WireFor(err error) (int, WireError) {
	switch {
	case errors.Is(err, ErrFenced):
		return http.StatusConflict, WireError{Error: "fenced", Message: err.Error()}
	case errors.Is(err, ErrResync):
		return http.StatusConflict, WireError{Error: "resync", Message: err.Error()}
	default:
		return http.StatusBadRequest, WireError{Error: "invalid", Message: err.Error()}
	}
}

// Control is the HTTP client for a shard's replication endpoints, used by
// the primary's tap (event batches) and by the router (roles, promotion,
// status reconciliation).
type Control struct {
	URL   string
	Token string
	HC    *http.Client
}

// NewControl builds a control client for the shard at url.
func NewControl(url, token string, hc *http.Client) *Control {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Control{URL: url, Token: token, HC: hc}
}

func (c *Control) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("replicate: marshal %s: %w", path, err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.URL+path, body)
	if err != nil {
		return fmt.Errorf("replicate: %s: %w", path, err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	resp, err := c.HC.Do(req)
	if err != nil {
		return fmt.Errorf("replicate: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return fmt.Errorf("replicate: read %s response: %w", path, err)
	}
	if resp.StatusCode/100 != 2 {
		var we WireError
		if json.Unmarshal(raw, &we) == nil {
			switch we.Error {
			case "fenced":
				return fmt.Errorf("%w: %s", ErrFenced, we.Message)
			case "resync":
				return fmt.Errorf("%w: %s", ErrResync, we.Message)
			}
		}
		return fmt.Errorf("replicate: %s %s: HTTP %d: %s", method, path, resp.StatusCode, truncate(raw, 200))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("replicate: decode %s response: %w", path, err)
		}
	}
	return nil
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return string(bytes.TrimSpace(b))
}

// SendEvents ships one batch to the follower's replication endpoint.
func (c *Control) SendEvents(ctx context.Context, dataset string, b Batch) (BatchAck, error) {
	var ack BatchAck
	err := c.do(ctx, http.MethodPost, "/v2/replication/datasets/"+dataset+"/events", b, &ack)
	return ack, err
}

// SetRole pushes a role assignment to a shard.
func (c *Control) SetRole(ctx context.Context, doc RoleDoc) error {
	return c.do(ctx, http.MethodPut, "/v2/replication/role", doc, nil)
}

// Promote asks a shard to start serving a dataset from its warm standby.
func (c *Control) Promote(ctx context.Context, dataset string, epoch uint64) (PromoteResponse, error) {
	var out PromoteResponse
	err := c.do(ctx, http.MethodPost, "/v2/replication/promote", PromoteRequest{Dataset: dataset, Epoch: epoch}, &out)
	return out, err
}

// Status fetches a shard's replication state.
func (c *Control) Status(ctx context.Context) (Status, error) {
	var out Status
	err := c.do(ctx, http.MethodGet, "/v2/replication/status", nil, &out)
	return out, err
}

// nowFunc is stubbed in tests.
var nowFunc = time.Now
