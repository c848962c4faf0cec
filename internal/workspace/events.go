package workspace

import "repro/internal/ingest"

// Journal event types emitted by the manager and the workspace apply
// methods. Replay applies them in file order through the same code paths
// that served live traffic (see Manager.Recover).
const (
	evCreate      = "create"
	evAttach      = "attach"
	evDetach      = "detach"
	evSuggest     = "suggest"
	evAnswer      = "answer"
	evEvict       = "evict"
	evMaterialize = "materialize"
	evSnapshot    = "snapshot"
	evFence       = "fence"
	evIngest      = "ingest"
	evEngine      = "engine"
)

// createData records a workspace creation with the budget and seed already
// resolved against the engine defaults, so replay does not depend on server
// configuration at restart time. CorpusLen pins the corpus the workspace
// was created over; recovery refuses to replay onto a different corpus.
type createData struct {
	Dataset   string `json:"dataset"`
	CorpusLen int    `json:"corpus_len"`
	Options
}

type attachData struct {
	Annotator string `json:"annotator"`
}

type detachData struct {
	Annotator string `json:"annotator"`
}

// suggestData records which rule the deterministic selection assigned.
// Replay assigns that key without ranking again; the engine event of the
// workspace's dataset is what vouches that the engine would rank alike.
type suggestData struct {
	Annotator string `json:"annotator"`
	Key       string `json:"key"`
}

type answerData struct {
	Annotator string `json:"annotator"`
	Key       string `json:"key"`
	Accept    bool   `json:"accept"`
}

type evictData struct {
	Reason string `json:"reason,omitempty"`
}

// fenceData records a replication fence for a dataset: once journaled, this
// shard rejects replication batches for the dataset stamped with an epoch
// below Epoch, even across restarts and compactions. It is how a promoted
// follower (and a demoted ex-primary) makes zombie-rejection durable.
type fenceData struct {
	Epoch uint64 `json:"epoch"`
}

// ingestData records a live corpus-growth batch for a dataset. From is the
// corpus length the batch was applied at; replay validates it so a duplicate
// delivery (recovery after a crash between apply and acknowledge, or a
// replication retry) is skipped instead of double-appended. Compaction
// re-emits the whole ingested tail as one consolidated batch, ordered before
// the snapshots that were taken over the grown corpus.
type ingestData struct {
	From      int               `json:"from"`
	Sentences []ingest.Sentence `json:"sentences"`
}

// materializeData records seed-rule materializations into a dataset's
// shared index — the one post-build index mutation. These events are
// appended under the engine's index write lock, so their journal order
// matches the order concurrent hierarchy generations observed them.
type materializeData struct {
	Specs []string `json:"specs"`
}

// engineData records the fingerprint (core.Engine.Fingerprint) of the
// engine a dataset's workspaces were journaled against. It is journaled once
// per dataset, before the first create or adopted snapshot on it, and
// re-emitted by compaction. Replay compares it with the serving engine's in
// O(1): workspaces of a dataset whose engine was rebuilt differently are
// failed instead of replayed by key onto an engine that would not have
// ranked the same keys.
type engineData struct {
	Fingerprint string `json:"fingerprint"`
}
