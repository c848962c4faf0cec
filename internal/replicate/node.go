package replicate

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/workspace"
)

// DefaultSyncTimeout bounds how long an acknowledged write waits for the
// follower ack before degrading to async replication.
const DefaultSyncTimeout = 2 * time.Second

// NodeOptions wires a replication node into a darwind shard.
type NodeOptions struct {
	// Manager is the live workspace manager; Journal its live journal. The
	// manager also names its attachments' labeler ids (LabelerIDs), which
	// status and promote responses carry so the router can re-home handles.
	Manager *workspace.Manager
	Journal *journal.Writer
	// Engines is the dataset → engine table the standbys replay against.
	Engines map[string]*core.Engine
	// JournalPath is the live journal's path; standby journals live next to
	// it as <path>.standby.<dataset>.
	JournalPath string
	// Sync blocks acknowledged state changes until the follower acks them
	// (bounded by SyncTimeout, default DefaultSyncTimeout).
	Sync        bool
	SyncTimeout time.Duration
	// HTTPClient is used for the outbound replication stream.
	HTTPClient *http.Client
	Logf       func(format string, args ...any)
}

// Node is one shard's replication endpoint state: the tap (when primary for
// a dataset), the receiver (when follower), and the router-pushed role
// table. Role pushes are idempotent, so the router can reconcile blindly.
type Node struct {
	opts NodeOptions
	tap  *Tap
	recv *Receiver

	mu    sync.Mutex
	roles map[string]RoleDoc
}

// StandbyPath derives the standby journal path for a dataset from the live
// journal path. Dataset names are flag-supplied identifiers, but escape
// path separators anyway.
func StandbyPath(journalPath, dataset string) string {
	safe := strings.NewReplacer("/", "_", "\\", "_").Replace(dataset)
	return journalPath + ".standby." + safe
}

// NewNode builds a replication node, recovers on-disk standbys, and — when
// sync replication is on — installs the manager barrier that makes
// "acknowledged" mean "replicated".
func NewNode(opts NodeOptions) *Node {
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.SyncTimeout <= 0 {
		opts.SyncTimeout = DefaultSyncTimeout
	}
	n := &Node{
		opts:  opts,
		tap:   NewTap(opts.Journal, opts.HTTPClient, opts.Logf),
		roles: make(map[string]RoleDoc),
	}
	n.recv = NewReceiver(opts.Engines, func(ds string) string {
		return StandbyPath(opts.JournalPath, ds)
	}, opts.Logf)
	if opts.Sync {
		opts.Manager.SetBarrier(n.barrier)
	}
	return n
}

// barrier is the sync-replication hook: after a state change is journaled
// and acknowledged locally, wait (bounded) for the dataset's follower to
// ack the current journal watermark. Waiting on Seq() rather than the exact
// event sequence is conservative — it can only wait longer, never release
// earlier than the event's own ack.
func (n *Node) barrier(dataset string) {
	n.tap.WaitAcked(dataset, n.opts.Manager.Seq(), n.opts.SyncTimeout)
}

// Close stops streaming and closes standbys (keeping them warm on disk).
func (n *Node) Close() {
	n.opts.Manager.SetBarrier(nil)
	n.tap.Close()
	n.recv.Close()
}

// SetRole applies a router-pushed role assignment.
func (n *Node) SetRole(doc RoleDoc) error {
	if doc.Dataset == "" {
		return fmt.Errorf("replicate: role without a dataset")
	}
	if _, ok := n.opts.Engines[doc.Dataset]; !ok {
		return fmt.Errorf("replicate: dataset %q is not served here", doc.Dataset)
	}
	switch doc.Role {
	case RolePrimary:
		if doc.Epoch == 0 {
			return fmt.Errorf("replicate: primary role for %q without an epoch", doc.Dataset)
		}
		// Fence below our own epoch: any still-streaming older primary is a
		// zombie from a failover we won.
		if err := n.opts.Manager.Fence(doc.Dataset, doc.Epoch); err != nil {
			return err
		}
		if doc.Follower != nil && doc.Follower.URL != "" {
			n.tap.Assign(doc.Dataset, doc.Epoch, *doc.Follower)
		} else {
			n.tap.Unassign(doc.Dataset)
		}
	case RoleFollower:
		if doc.Epoch == 0 {
			return fmt.Errorf("replicate: follower role for %q without an epoch", doc.Dataset)
		}
		n.tap.Unassign(doc.Dataset)
		if err := n.opts.Manager.Fence(doc.Dataset, doc.Epoch); err != nil {
			return err
		}
		// Demotion: whatever this shard was serving live for the dataset now
		// lives on the promoted primary; a fenced ex-primary must stop
		// serving it. Idempotent — a shard that was never primary has
		// nothing to evict.
		if evicted := n.opts.Manager.EvictDataset(doc.Dataset, "demoted to replication follower"); len(evicted) > 0 {
			n.opts.Logf("replicate: demoted for %s at epoch %d; evicted %d live workspaces", doc.Dataset, doc.Epoch, len(evicted))
		}
	case RoleNone:
		n.tap.Unassign(doc.Dataset)
		n.recv.Drop(doc.Dataset)
	default:
		return fmt.Errorf("replicate: unknown role %q", doc.Role)
	}
	n.mu.Lock()
	n.roles[doc.Dataset] = doc
	n.mu.Unlock()
	return nil
}

// ReceiveBatch applies one inbound replication batch against the dataset's
// durable fence.
func (n *Node) ReceiveBatch(dataset string, b Batch) (BatchAck, error) {
	fence := n.opts.Manager.Fences()[dataset]
	return n.recv.Apply(dataset, b, fence)
}

// Promote makes this shard the dataset's primary at the given epoch: fence
// first (durably, so the old primary's late batches are rejected even after
// a restart), then adopt the warm standby into the live manager. Returns
// what came live, workspaces and their attachments' labeler ids, so the
// router can re-home existing handles.
func (n *Node) Promote(req PromoteRequest) (PromoteResponse, error) {
	if req.Dataset == "" || req.Epoch == 0 {
		return PromoteResponse{}, fmt.Errorf("replicate: promote needs a dataset and an epoch")
	}
	if _, ok := n.opts.Engines[req.Dataset]; !ok {
		return PromoteResponse{}, fmt.Errorf("replicate: dataset %q is not served here", req.Dataset)
	}
	if fence := n.opts.Manager.Fences()[req.Dataset]; req.Epoch < fence {
		return PromoteResponse{}, fmt.Errorf("%w: promote epoch %d is below fence %d", ErrFenced, req.Epoch, fence)
	}
	if err := n.opts.Manager.Fence(req.Dataset, req.Epoch); err != nil {
		return PromoteResponse{}, fmt.Errorf("replicate: fence for promote: %w", err)
	}
	resp := PromoteResponse{Dataset: req.Dataset, Epoch: req.Epoch}
	specs, snaps, upto, cleanup, ok := n.recv.TakeStandby(req.Dataset)
	if !ok {
		// Nothing replicated here (a cold promote): become primary serving
		// an empty dataset rather than leaving it down, and say so loudly.
		n.opts.Logf("replicate: promoting %s at epoch %d WITHOUT a warm standby: prior state is lost", req.Dataset, req.Epoch)
	} else {
		adopted, err := n.adoptStandby(req.Dataset, specs, snaps)
		if err != nil {
			cleanup(false) // keep the on-disk standby recoverable
			return PromoteResponse{}, err
		}
		cleanup(true)
		resp.Workspaces = adopted
		resp.Labelers = n.opts.Manager.LabelerIDs(adopted)
		n.opts.Logf("replicate: promoted %s at epoch %d: %d workspaces adopted (standby upto %d)",
			req.Dataset, req.Epoch, len(adopted), upto)
	}
	n.mu.Lock()
	n.roles[req.Dataset] = RoleDoc{Dataset: req.Dataset, Epoch: req.Epoch, Role: RolePrimary}
	n.mu.Unlock()
	replPromotions.Inc()
	return resp, nil
}

// adoptStandby moves standby state into the live manager: evict whatever
// stale live state this shard still holds for the dataset, replay the
// primary's rule materializations, install every snapshot, and force the
// live journal to disk before the standby copy may be truncated.
func (n *Node) adoptStandby(dataset string, specs []string, snaps []*workspace.Snapshot) ([]string, error) {
	m := n.opts.Manager
	if evicted := m.EvictDataset(dataset, "superseded by promoted standby"); len(evicted) > 0 {
		n.opts.Logf("replicate: promote %s: evicted %d stale live workspaces", dataset, len(evicted))
	}
	if err := m.AdoptMaterialized(dataset, specs); err != nil {
		return nil, err
	}
	adopted := make([]string, 0, len(snaps))
	for _, snap := range snaps {
		if err := m.AdoptSnapshot(snap); err != nil {
			return nil, fmt.Errorf("replicate: adopt workspace %s: %w", snap.ID, err)
		}
		adopted = append(adopted, snap.ID)
	}
	if err := m.Sync(); err != nil {
		return nil, fmt.Errorf("replicate: sync live journal after adoption: %w", err)
	}
	sort.Strings(adopted)
	return adopted, nil
}

// Status assembles the shard's replication state for the router's
// reconciliation loop.
func (n *Node) Status() Status {
	n.mu.Lock()
	roles := make(map[string]RoleDoc, len(n.roles))
	for ds, doc := range n.roles {
		roles[ds] = doc
	}
	n.mu.Unlock()

	fences := n.opts.Manager.Fences()
	seen := make(map[string]bool)
	var names []string
	for ds := range roles {
		if !seen[ds] {
			seen[ds] = true
			names = append(names, ds)
		}
	}
	for _, ds := range n.recv.Datasets() {
		if !seen[ds] {
			seen[ds] = true
			names = append(names, ds)
		}
	}
	for ds := range fences {
		if !seen[ds] {
			seen[ds] = true
			names = append(names, ds)
		}
	}
	sort.Strings(names)

	out := Status{Fences: fences}
	for _, ds := range names {
		d := DatasetStatus{Dataset: ds, Role: RoleNone}
		if doc, ok := roles[ds]; ok {
			d.Role = doc.Role
			d.Epoch = doc.Epoch
		} else if fences[ds] > 0 && len(n.opts.Manager.IDsByDataset(ds)) > 0 {
			// No router-pushed role yet (this process restarted), but the
			// journal recovered live workspaces behind a fence: this shard
			// served the dataset at that epoch before the restart. Claiming
			// primary@fence here is what lets a restarted router rebuild its
			// placement (and re-home) tables from shard state alone.
			d.Role = RolePrimary
			d.Epoch = fences[ds]
		}
		if follower, epoch, acked, healthy, ok := n.tap.streamStatus(ds); ok {
			d.Follower = follower
			d.Epoch = epoch
			d.AckedUpto = acked
			d.Healthy = healthy
			if seq := n.opts.Manager.Seq(); seq > acked {
				d.Lag = seq - acked
			}
		}
		if epoch, upto, wsCount, ok := n.recv.StatusFor(ds); ok {
			if d.Role == RoleNone {
				d.Role = RoleFollower
			}
			if epoch > d.Epoch {
				d.Epoch = epoch
			}
			d.StandbyUpto = upto
			d.StandbyWorkspaces = wsCount
		}
		if d.Role == RolePrimary {
			d.Workspaces = n.opts.Manager.IDsByDataset(ds)
			d.Labelers = n.opts.Manager.LabelerIDs(d.Workspaces)
		}
		out.Datasets = append(out.Datasets, d)
	}
	return out
}
