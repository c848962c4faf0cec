package workspace

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/journal"
	"repro/internal/obs"
)

// Recovery telemetry: Recover runs once per process start, so plain gauges
// capture what the last (only) recovery did.
var (
	recoveryDuration = obs.Default().Gauge("darwin_workspace_recovery_duration_seconds",
		"Wall-clock duration of the last journal replay at startup.")
	recoveryEvents = obs.Default().Gauge("darwin_workspace_recovery_events",
		"Journal events replayed by the last recovery.")
	recoverySkipped = obs.Default().Gauge("darwin_workspace_recovery_skipped_workspaces",
		"Workspaces the last recovery could not reconstruct and skipped.")
)

// Default manager limits.
const (
	DefaultTTL           = 2 * time.Hour
	DefaultMaxWorkspaces = 256
	DefaultCompactEvery  = 4096
)

// ManagerConfig tunes the workspace manager.
type ManagerConfig struct {
	// TTL evicts workspaces idle longer than this (default 2h).
	TTL time.Duration
	// MaxWorkspaces bounds the number of live workspaces (default 256).
	MaxWorkspaces int
	// CompactEvery triggers snapshot+truncate compaction of the journal
	// after this many appends (default 4096; negative disables).
	CompactEvery int
	// AttachmentTTL detaches individual annotators idle longer than this
	// during sweeps, releasing their pending suggestion back to the shared
	// pool well before the whole workspace expires (0 disables). The detach
	// is journaled like a client-issued one, so it replays — and replicates —
	// identically.
	AttachmentTTL time.Duration
}

func (c ManagerConfig) withDefaults() ManagerConfig {
	if c.TTL <= 0 {
		c.TTL = DefaultTTL
	}
	if c.MaxWorkspaces <= 0 {
		c.MaxWorkspaces = DefaultMaxWorkspaces
	}
	if c.CompactEvery == 0 {
		c.CompactEvery = DefaultCompactEvery
	}
	return c
}

// maxLabelers bounds the live attachments across all workspaces; each is a
// labeler the serving layer resolves through Attachment.
const maxLabelers = 4096

type entry struct {
	ws       *Workspace
	lastUsed time.Time
	// labelers holds the ids this workspace's attachments have in
	// Manager.labelers, so dropping the workspace needs no workspace lock.
	labelers map[string]bool
}

// Attachment is one annotator attached to one workspace: what a workspace
// labeler id resolves to.
type Attachment struct {
	Workspace string
	Annotator string
}

// LabelerID derives the public labeler id of a workspace attachment
// deterministically from (workspace, annotator). Because the id is a pure
// function of journaled state, it survives a restart and a promotion: the
// manager re-derives the same id for every recovered or adopted attachment,
// so a remote client can keep driving the labeler id it was handed.
func LabelerID(wsID, annotator string) string {
	sum := sha256.Sum256([]byte("darwin/ws-labeler\x00" + wsID + "\x00" + annotator))
	return "w" + hex.EncodeToString(sum[:])[:31]
}

// Manager owns the live workspaces of a server, their journal, and the
// recovery path. All state-changing operations go through Manager methods,
// which hold the appender gate so compaction can exclude them; read-only
// workspace methods (Report, PositivesMap, HierarchyGenerations) may be
// called directly on the *Workspace returned by Get.
type Manager struct {
	cfg     ManagerConfig
	engines map[string]*core.Engine
	jw      *journal.Writer

	// gate is the appender gate: every journaling operation runs under
	// RLock for its duration, and Compact takes Lock so the snapshot it
	// writes captures every acknowledged event.
	//darwin:lockrank gate
	gate sync.RWMutex

	mu    sync.Mutex //darwin:lockrank manager
	items map[string]*entry
	now   func() time.Time
	// labelers maps the labeler id of every attachment to a live workspace
	// to that attachment; attaching counts attaches admitted under
	// maxLabelers whose index update is still to come.
	labelers  map[string]Attachment
	attaching int

	// matMu serializes materialize-hook appends (which run under the
	// engines' index write locks, outside the gate) with compaction, and
	// guards the record of journaled materializations that compaction must
	// preserve, and the datasets whose engine fingerprint is journaled.
	//darwin:lockrank mat
	matMu    sync.Mutex
	matSpecs map[string][]string
	matSeen  map[string]map[string]bool
	engSeen  map[string]bool

	// fenceMu guards fences: the per-dataset minimum replication epoch this
	// shard accepts. Fences are journaled (and re-emitted by compaction) so
	// zombie rejection survives restarts.
	fenceMu sync.Mutex
	fences  map[string]uint64

	// barrier, when set, is invoked after every acknowledged state change
	// with the workspace's dataset; synchronous replication installs the
	// wait-for-follower-ack here. It runs outside all manager locks.
	barrier atomic.Pointer[func(dataset string)]

	recovering atomic.Bool
	compacting atomic.Bool
}

// NewManager creates a manager over the given engines (dataset name →
// engine). jw may be nil for a volatile (journal-less) manager. The manager
// registers itself as each engine's materialize hook, so every seed-rule
// materialization — including ones from the plain session API — is
// journaled in index-lock order.
func NewManager(engines map[string]*core.Engine, jw *journal.Writer, cfg ManagerConfig) *Manager {
	m := &Manager{
		cfg:      cfg.withDefaults(),
		engines:  engines,
		jw:       jw,
		items:    make(map[string]*entry),
		now:      time.Now,
		labelers: make(map[string]Attachment),
		matSpecs: make(map[string][]string),
		matSeen:  make(map[string]map[string]bool),
		engSeen:  make(map[string]bool),
		fences:   make(map[string]uint64),
	}
	if jw != nil {
		for name, eng := range engines {
			name := name
			eng.SetMaterializeHook(func(specs []string) { m.onMaterialize(name, specs) })
		}
	}
	return m
}

// onMaterialize journals fresh seed-rule materializations. It is called
// under the engine's index write lock; see core.SetMaterializeHook.
func (m *Manager) onMaterialize(dataset string, specs []string) {
	if m.jw == nil || m.recovering.Load() {
		return
	}
	m.matMu.Lock()
	defer m.matMu.Unlock()
	fresh := m.recordMaterializedLocked(dataset, specs)
	if len(fresh) > 0 {
		m.jw.Append(evMaterialize, "", dataset, materializeData{Specs: fresh})
	}
}

// recordMaterializedLocked dedups specs against everything already journaled
// for the dataset and records the fresh ones. Callers hold matMu.
func (m *Manager) recordMaterializedLocked(dataset string, specs []string) []string {
	seen := m.matSeen[dataset]
	if seen == nil {
		seen = make(map[string]bool)
		m.matSeen[dataset] = seen
	}
	var fresh []string
	for _, spec := range specs {
		if spec == "" || seen[spec] {
			continue
		}
		seen[spec] = true
		m.matSpecs[dataset] = append(m.matSpecs[dataset], spec)
		fresh = append(fresh, spec)
	}
	return fresh
}

// journalEngine journals the dataset's engine fingerprint unless this
// journal already holds it, so that every create and snapshot event follows
// the fingerprint its replay is checked against. Callers hold the gate read
// lock.
func (m *Manager) journalEngine(dataset string) error {
	if m.jw == nil || m.recovering.Load() {
		return nil
	}
	m.matMu.Lock()
	defer m.matMu.Unlock()
	if m.engSeen[dataset] {
		return nil
	}
	if _, err := m.jw.Append(evEngine, "", dataset, engineData{Fingerprint: m.engines[dataset].Fingerprint()}); err != nil {
		return fmt.Errorf("workspace: %w: %v", ErrJournal, err)
	}
	m.engSeen[dataset] = true
	return nil
}

// logFor returns the workspace's journaling callback. Appends are suppressed
// during recovery (replay must not re-journal the events it is reading); an
// append failure propagates to the workspace, which stops accepting new
// state changes rather than acknowledge undurable work.
func (m *Manager) logFor(id string) LogFunc {
	if m.jw == nil {
		return nil
	}
	return func(typ string, data any) error {
		if m.recovering.Load() {
			return nil
		}
		_, err := m.jw.Append(typ, id, "", data)
		if err == nil && m.cfg.CompactEvery > 0 && m.jw.SinceRewrite() >= m.cfg.CompactEvery {
			go m.Compact()
		}
		return err
	}
}

func newWorkspaceID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("workspace: generate id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// Create builds a new workspace on the named dataset's engine, resolving
// budget and seed against the engine defaults, and journals its creation.
func (m *Manager) Create(dataset string, opts Options) (*Workspace, error) {
	ws, err := m.create(dataset, opts)
	if err == nil {
		m.awaitReplication(dataset)
	}
	return ws, err
}

func (m *Manager) create(dataset string, opts Options) (*Workspace, error) {
	m.gate.RLock()
	defer m.gate.RUnlock()
	eng, ok := m.engines[dataset]
	if !ok {
		return nil, fmt.Errorf("workspace: unknown dataset %q", dataset)
	}
	if opts.Budget <= 0 {
		opts.Budget = eng.DefaultBudget()
	}
	if opts.Seed == 0 {
		opts.Seed = eng.DefaultSeed()
	}
	// Only expired workspaces make room here; detaching idle annotators is
	// the janitor's job, and would make the create wait on every live
	// workspace's lock.
	m.mu.Lock()
	m.evictExpiredLocked(m.now())
	full := len(m.items) >= m.cfg.MaxWorkspaces
	m.mu.Unlock()
	if full {
		return nil, fmt.Errorf("workspace: %w (%d live workspaces)", ErrLimit, m.cfg.MaxWorkspaces)
	}
	id, err := newWorkspaceID()
	if err != nil {
		return nil, err
	}
	// logFor only constructs the LogFunc closure here; its gate acquisition
	// happens when the workspace later invokes it, on a fresh stack.
	//darwin:lockorder-exempt closure construction only; the gate RLock inside runs on the caller stack of the LogFunc, not here
	ws, err := New(eng, id, dataset, opts, m.logFor(id))
	if err != nil {
		return nil, err
	}
	// The create event follows the materialize event New just fired, the
	// same order recovery applies them in. A failed append fails the
	// create: an unjournaled workspace would silently lose all its work at
	// the next restart.
	if err := m.journalEngine(dataset); err != nil {
		return nil, err
	}
	if m.jw != nil {
		if _, err := m.jw.Append(evCreate, id, "", createData{Dataset: dataset, CorpusLen: eng.Corpus().Len(), Options: opts}); err != nil {
			return nil, fmt.Errorf("workspace: %w: %v", ErrJournal, err)
		}
	}
	m.mu.Lock()
	m.items[id] = &entry{ws: ws, lastUsed: m.now()}
	m.mu.Unlock()
	return ws, nil
}

// Ingest appends a batch of sentences to the named dataset's live corpus,
// incrementally extending its index, and journals the growth durably (the
// event is fsynced before Ingest returns — an acknowledged batch survives a
// crash). It returns the sentence-ID range [from, to) the batch occupies.
//
// Unlike every other manager operation, Ingest holds the appender gate
// exclusively: create events pin the corpus length they were journaled at,
// so corpus growth must not interleave with other journaling operations —
// the journal order has to equal the apply order. Engine-level materialize
// appends stay safe without the gate because ingest and materialization
// commute (the index re-probes ad-hoc rules against ingested sentences).
func (m *Manager) Ingest(dataset string, batch []ingest.Sentence) (from, to int, err error) {
	from, to, err = m.ingest(dataset, batch)
	if err == nil {
		m.awaitReplication(dataset)
	}
	return from, to, err
}

func (m *Manager) ingest(dataset string, batch []ingest.Sentence) (int, int, error) {
	m.gate.Lock()
	defer m.gate.Unlock()
	eng, ok := m.engines[dataset]
	if !ok {
		return 0, 0, fmt.Errorf("workspace: unknown dataset %q", dataset)
	}
	from, to, err := eng.Ingest(batch)
	if err != nil {
		return from, from, err
	}
	if m.jw != nil && !m.recovering.Load() {
		if _, err := m.jw.Append(evIngest, "", dataset, ingestData{From: from, Sentences: batch}); err != nil {
			return from, to, fmt.Errorf("workspace: %w: %v", ErrJournal, err)
		}
		if err := m.jw.Sync(); err != nil {
			return from, to, fmt.Errorf("workspace: %w: %v", ErrJournal, err)
		}
	}
	return from, to, nil
}

// awaitReplication runs the installed replication barrier, if any. Callers
// must not hold the appender gate: a synchronous-replication wait here must
// not stall compaction or other appenders.
func (m *Manager) awaitReplication(dataset string) {
	if b := m.barrier.Load(); b != nil {
		(*b)(dataset)
	}
}

// SetBarrier installs (or clears, with nil) the post-acknowledge replication
// barrier. It is called once at startup, before the manager serves traffic.
func (m *Manager) SetBarrier(f func(dataset string)) {
	if f == nil {
		m.barrier.Store(nil)
		return
	}
	m.barrier.Store(&f)
}

// Engine returns the engine serving the named dataset (the serving layer
// uses it to resolve sample texts and exports for workspace-backed labelers).
func (m *Manager) Engine(dataset string) (*core.Engine, bool) {
	eng, ok := m.engines[dataset]
	return eng, ok
}

// Get returns the live workspace with the given ID, refreshing its idle
// timer. Expired workspaces are evicted and treated as absent.
func (m *Manager) Get(id string) (*Workspace, bool) {
	m.gate.RLock()
	defer m.gate.RUnlock()
	return m.get(id)
}

func (m *Manager) get(id string) (*Workspace, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	en, ok := m.items[id]
	if !ok {
		return nil, false
	}
	now := m.now()
	if now.Sub(en.lastUsed) > m.cfg.TTL {
		m.evictLocked(id, "ttl")
		return nil, false
	}
	en.lastUsed = now
	return en.ws, true
}

// Peek returns the live workspace with the given ID without refreshing its
// idle timer: read-only listings and status polls must not keep abandoned
// workspaces alive.
func (m *Manager) Peek(id string) (*Workspace, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	en, ok := m.peekLocked(id)
	if !ok {
		return nil, false
	}
	return en.ws, true
}

// peekLocked is Peek for callers that hold m.mu.
func (m *Manager) peekLocked(id string) (*entry, bool) {
	en, ok := m.items[id]
	if !ok || m.now().Sub(en.lastUsed) > m.cfg.TTL {
		return nil, false
	}
	return en, true
}

// Attachment resolves a labeler id (LabelerID) to the attachment it names.
// Like Peek it refreshes no idle timer and treats an expired workspace as
// absent, and it takes no workspace lock.
func (m *Manager) Attachment(id string) (Attachment, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	a, ok := m.labelers[id]
	if !ok {
		return Attachment{}, false
	}
	if _, live := m.peekLocked(a.Workspace); !live {
		return Attachment{}, false
	}
	return a, true
}

// LabelerIDs returns the labeler ids of the attachments to the given live
// workspaces, sorted. An empty list yields none.
func (m *Manager) LabelerIDs(wsIDs []string) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for _, id := range wsIDs {
		if en, ok := m.peekLocked(id); ok {
			for lid := range en.labelers {
				out = append(out, lid)
			}
		}
	}
	sort.Strings(out)
	return out
}

// indexLocked records the named attachments of workspace id. Callers hold
// m.mu.
func (m *Manager) indexLocked(en *entry, id string, names []string) {
	for _, name := range names {
		lid := LabelerID(id, name)
		m.labelers[lid] = Attachment{Workspace: id, Annotator: name}
		if en.labelers == nil {
			en.labelers = make(map[string]bool)
		}
		en.labelers[lid] = true
	}
}

// unindexNamesLocked forgets the named attachments of workspace id; no names
// forgets none. Callers hold m.mu.
func (m *Manager) unindexNamesLocked(en *entry, id string, names []string) {
	for _, name := range names {
		lid := LabelerID(id, name)
		delete(m.labelers, lid)
		delete(en.labelers, lid)
	}
}

// unindexWorkspaceLocked forgets every attachment of workspace id from the
// index's own record, without asking the workspace, whose lock an in-flight
// suggest may hold. Callers hold m.mu.
func (m *Manager) unindexWorkspaceLocked(id string) {
	if en, ok := m.items[id]; ok {
		for lid := range en.labelers {
			delete(m.labelers, lid)
		}
	}
}

// syncAttachmentLocked brings the index entry of (id, name) in line with
// the workspace's published attachments after an attach or detach. Reading
// what the workspace published rather than the call's outcome means a racing
// attach and detach of one name cannot leave the index behind: whichever
// sync runs last sees both. Callers hold m.mu.
func (m *Manager) syncAttachmentLocked(id string, ws *Workspace, name string) {
	en, ok := m.items[id]
	if !ok || en.ws != ws {
		return // evicted or replaced meanwhile, which updated the index
	}
	if slices.Contains(ws.Annotators(), name) {
		m.indexLocked(en, id, []string{name})
	} else {
		m.unindexNamesLocked(en, id, []string{name})
	}
}

// Attach adds an annotator to a workspace. It refuses with ErrLimit, before
// anything is journaled, once maxLabelers attachments are live.
func (m *Manager) Attach(id, name string) error {
	m.gate.RLock()
	ws, ok := m.get(id)
	if !ok {
		m.gate.RUnlock()
		return errUnknown(id)
	}
	m.mu.Lock()
	if len(m.labelers)+m.attaching >= maxLabelers {
		m.mu.Unlock()
		m.sweep()
		m.mu.Lock()
	}
	full := len(m.labelers)+m.attaching >= maxLabelers
	if !full {
		m.attaching++
	}
	m.mu.Unlock()
	if full {
		m.gate.RUnlock()
		return fmt.Errorf("workspace: labeler %w (%d live labelers)", ErrLimit, maxLabelers)
	}
	err := ws.Attach(name)
	m.mu.Lock()
	m.attaching--
	m.syncAttachmentLocked(id, ws, name)
	m.mu.Unlock()
	m.gate.RUnlock()
	if err == nil {
		m.awaitReplication(ws.Dataset())
	}
	return err
}

// Detach removes an annotator from a workspace.
func (m *Manager) Detach(id, name string) error {
	m.gate.RLock()
	ws, ok := m.get(id)
	if !ok {
		m.gate.RUnlock()
		return errUnknown(id)
	}
	err := ws.Detach(name)
	m.mu.Lock()
	m.syncAttachmentLocked(id, ws, name)
	m.mu.Unlock()
	m.gate.RUnlock()
	if err == nil {
		m.awaitReplication(ws.Dataset())
	}
	return err
}

// Suggest returns (or assigns) the annotator's next suggestion.
func (m *Manager) Suggest(id, name string) (Suggestion, bool, error) {
	m.gate.RLock()
	ws, ok := m.get(id)
	if !ok {
		m.gate.RUnlock()
		return Suggestion{}, false, errUnknown(id)
	}
	sug, assigned, err := ws.Suggest(name)
	m.gate.RUnlock()
	if err == nil && assigned {
		m.awaitReplication(ws.Dataset())
	}
	return sug, assigned, err
}

// Answer records an annotator's verdict. With a replication barrier
// installed, Answer does not return until the applied event is acknowledged
// by the follower (or the sync timeout degrades the wait) — this is what
// makes "acknowledged answer" mean "survives primary loss".
func (m *Manager) Answer(id, name, key string, accept bool) (Record, error) {
	m.gate.RLock()
	ws, ok := m.get(id)
	if !ok {
		m.gate.RUnlock()
		return Record{}, errUnknown(id)
	}
	rec, err := ws.Answer(name, key, accept)
	m.gate.RUnlock()
	if err == nil {
		m.awaitReplication(ws.Dataset())
	}
	return rec, err
}

// Evict drops a workspace, journaling the eviction (so replay drops it too)
// and syncing the journal before returning. It reports whether the workspace
// existed; a non-nil error means the eviction is applied in memory but NOT
// durably journaled — callers must not acknowledge the delete as permanent
// (a crash before the next sync would resurrect the workspace on replay).
//
//darwin:journals
func (m *Manager) Evict(id, reason string) (bool, error) {
	m.gate.RLock()
	defer m.gate.RUnlock()
	m.mu.Lock()
	if _, ok := m.items[id]; !ok {
		m.mu.Unlock()
		return false, nil
	}
	err := m.evictLocked(id, reason)
	m.mu.Unlock()
	if err == nil && m.jw != nil && !m.recovering.Load() {
		if serr := m.jw.Sync(); serr != nil {
			err = fmt.Errorf("workspace: %w: %v", ErrJournal, serr)
		}
	}
	return true, err
}

// evictLocked removes a workspace and journals the eviction, returning the
// append error. The in-memory entry is dropped regardless: the Writer's
// error is sticky, so best-effort callers (TTL sweeps) may ignore the
// return — the next journaling operation surfaces it. Callers hold m.mu
// (and the gate read lock).
func (m *Manager) evictLocked(id, reason string) error {
	m.unindexWorkspaceLocked(id)
	delete(m.items, id)
	if m.jw != nil && !m.recovering.Load() {
		if _, err := m.jw.Append(evEvict, id, "", evictData{Reason: reason}); err != nil {
			return fmt.Errorf("workspace: %w: %v", ErrJournal, err)
		}
	}
	return nil
}

// Sweep evicts all workspaces idle longer than the TTL and returns how many
// were removed.
func (m *Manager) Sweep() int {
	m.gate.RLock()
	defer m.gate.RUnlock()
	return m.sweep()
}

// sweep evicts the expired workspaces under m.mu, then detaches idle
// annotators outside it: DetachIdle takes each workspace's lock, which an
// in-flight suggest may hold, and no lookup on the shard may wait behind
// that. Callers hold the gate read lock and not m.mu.
func (m *Manager) sweep() int {
	m.mu.Lock()
	now := m.now()
	n := m.evictExpiredLocked(now)
	var live []*entry
	if m.cfg.AttachmentTTL > 0 && !m.recovering.Load() {
		for _, en := range m.items {
			live = append(live, en)
		}
	}
	m.mu.Unlock()
	// Reclaim individual abandoned attachments long before the workspace
	// itself expires; each detach journals (and replicates) like a
	// client-issued one.
	for _, en := range live {
		names := en.ws.DetachIdle(now.Add(-m.cfg.AttachmentTTL))
		m.mu.Lock()
		for _, name := range names {
			m.syncAttachmentLocked(en.ws.ID(), en.ws, name)
		}
		m.mu.Unlock()
	}
	return n
}

// evictExpiredLocked evicts the workspaces idle longer than the TTL at now
// and returns how many. Callers hold m.mu (and the gate read lock).
func (m *Manager) evictExpiredLocked(now time.Time) int {
	n := 0
	for id, en := range m.items {
		if now.Sub(en.lastUsed) > m.cfg.TTL {
			m.evictLocked(id, "ttl")
			n++
		}
	}
	return n
}

// Len returns the number of live workspaces.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.items)
}

// IDs returns the live workspace IDs, sorted.
func (m *Manager) IDs() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.items))
	for id := range m.items {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Compact rewrites the journal as (materialize events, one snapshot per
// live workspace), truncating the event history. It excludes every
// journaling operation via the appender gate, so the snapshots capture all
// acknowledged events; engine-level materialize appends (which run outside
// the gate, under index locks) are excluded via matMu.
func (m *Manager) Compact() error {
	if m.jw == nil {
		return nil
	}
	if !m.compacting.CompareAndSwap(false, true) {
		return nil
	}
	defer m.compacting.Store(false)
	m.gate.Lock()
	defer m.gate.Unlock()
	m.matMu.Lock()
	defer m.matMu.Unlock()

	var events []journal.Event
	// Ingested corpus growth is re-emitted first, as one consolidated batch
	// per dataset: everything after it — materializations whose coverage
	// includes ingested sentences, snapshots taken over the grown corpus —
	// replays against the corpus length the tail reconstructs.
	ingested := make([]string, 0, len(m.engines))
	for d := range m.engines {
		ingested = append(ingested, d)
	}
	sort.Strings(ingested)
	for _, d := range ingested {
		// index (30) is acquired under matMu (20) — inverted. Safe only
		// because the exclusive appender gate above excludes every
		// ixMu-holder that could be waiting on matMu (ingest and the
		// materialize hook both run gate-protected).
		//darwin:lockorder-exempt exclusive appender gate excludes all ixMu->matMu nestings for the duration of Compact
		from, tail := m.engines[d].IngestedTail()
		if len(tail) == 0 {
			continue
		}
		data, err := json.Marshal(ingestData{From: from, Sentences: tail})
		if err != nil {
			return fmt.Errorf("workspace: compact ingest: %w", err)
		}
		events = append(events, journal.Event{Type: evIngest, Dataset: d, Data: data})
	}
	datasets := make([]string, 0, len(m.matSpecs))
	for d := range m.matSpecs {
		datasets = append(datasets, d)
	}
	sort.Strings(datasets)
	for _, d := range datasets {
		data, err := json.Marshal(materializeData{Specs: m.matSpecs[d]})
		if err != nil {
			return fmt.Errorf("workspace: compact: %w", err)
		}
		events = append(events, journal.Event{Type: evMaterialize, Dataset: d, Data: data})
	}
	// Replication fences must survive compaction: losing one would let a
	// fenced zombie primary's stale stream be accepted after a restart.
	m.fenceMu.Lock()
	fenced := make([]string, 0, len(m.fences))
	for d := range m.fences {
		fenced = append(fenced, d)
	}
	sort.Strings(fenced)
	for _, d := range fenced {
		data, err := json.Marshal(fenceData{Epoch: m.fences[d]})
		if err != nil {
			m.fenceMu.Unlock()
			return fmt.Errorf("workspace: compact fence: %w", err)
		}
		events = append(events, journal.Event{Type: evFence, Dataset: d, Data: data})
	}
	m.fenceMu.Unlock()
	// Engine fingerprints precede the snapshots they vouch for.
	fingerprinted := make([]string, 0, len(m.engSeen))
	for d, seen := range m.engSeen {
		if seen {
			fingerprinted = append(fingerprinted, d)
		}
	}
	sort.Strings(fingerprinted)
	for _, d := range fingerprinted {
		data, err := json.Marshal(engineData{Fingerprint: m.engines[d].Fingerprint()})
		if err != nil {
			return fmt.Errorf("workspace: compact engine: %w", err)
		}
		events = append(events, journal.Event{Type: evEngine, Dataset: d, Data: data})
	}
	// The manager rank (mu=60) is acquired here while matMu (20) is held —
	// an inversion of the documented order. It is safe only because the
	// appender gate is held exclusively above: no other goroutine can be
	// inside a mu->matMu nesting while Compact runs.
	//darwin:lockorder-exempt exclusive appender gate excludes all mu->matMu nestings for the duration of Compact
	m.mu.Lock()
	ids := make([]string, 0, len(m.items))
	for id := range m.items {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		// workspace (40) is acquired under matMu (20) — inverted. Safe for
		// the same reason as IngestedTail above: every ws.mu holder that can
		// reach matMu runs under the gate Compact holds exclusively.
		//darwin:lockorder-exempt exclusive appender gate excludes all ws.mu->matMu nestings for the duration of Compact
		data, err := json.Marshal(m.items[id].ws.Snapshot())
		if err != nil {
			m.mu.Unlock()
			return fmt.Errorf("workspace: compact snapshot %s: %w", id, err)
		}
		events = append(events, journal.Event{Type: evSnapshot, WS: id, Data: data})
	}
	m.mu.Unlock()
	return m.jw.Rewrite(events)
}

// Sync forces the journal to disk (no-op without a journal).
func (m *Manager) Sync() error {
	if m.jw == nil {
		return nil
	}
	return m.jw.Sync()
}

// Close flushes and closes the journal (no-op without a journal). Call it
// on graceful shutdown after the HTTP server has drained.
func (m *Manager) Close() error {
	if m.jw == nil {
		return nil
	}
	return m.jw.Close()
}

// Seq returns the journal's last assigned sequence number (0 without a
// journal). The replication tap uses it as the sync-barrier watermark.
func (m *Manager) Seq() uint64 {
	if m.jw == nil {
		return 0
	}
	return m.jw.Seq()
}

// Fence records (and journals, durably) that this shard rejects replication
// batches for the dataset below the given epoch. Fences only ratchet up.
func (m *Manager) Fence(dataset string, epoch uint64) error {
	if !m.recordFence(dataset, epoch) {
		return nil
	}
	if m.jw == nil {
		return nil
	}
	m.gate.RLock()
	_, err := m.jw.Append(evFence, "", dataset, fenceData{Epoch: epoch})
	m.gate.RUnlock()
	if err != nil {
		return fmt.Errorf("workspace: %w: %v", ErrJournal, err)
	}
	// A fence that is not on disk before the promote/demote is acknowledged
	// is no fence at all: force it down.
	return m.jw.Sync()
}

// recordFence ratchets the in-memory fence and reports whether it moved.
func (m *Manager) recordFence(dataset string, epoch uint64) bool {
	m.fenceMu.Lock()
	defer m.fenceMu.Unlock()
	if epoch <= m.fences[dataset] {
		return false
	}
	m.fences[dataset] = epoch
	return true
}

// Fences returns a copy of the per-dataset fence table.
func (m *Manager) Fences() map[string]uint64 {
	m.fenceMu.Lock()
	defer m.fenceMu.Unlock()
	out := make(map[string]uint64, len(m.fences))
	for d, e := range m.fences {
		out[d] = e
	}
	return out
}

// AdoptSnapshot installs a workspace from a snapshot taken elsewhere — the
// promotion path: a warm standby's state becomes live here, journaled as a
// snapshot event so it survives this shard's own restarts. An existing
// workspace with the same ID is replaced (the snapshot is authoritative).
func (m *Manager) AdoptSnapshot(snap *Snapshot) error {
	m.gate.RLock()
	defer m.gate.RUnlock()
	eng, ok := m.engines[snap.Dataset]
	if !ok {
		return fmt.Errorf("workspace: unknown dataset %q", snap.Dataset)
	}
	//darwin:lockorder-exempt closure construction only; the gate RLock inside runs on the caller stack of the LogFunc, not here
	ws, err := Restore(eng, snap, m.logFor(snap.ID))
	if err != nil {
		return err
	}
	if err := m.journalEngine(snap.Dataset); err != nil {
		return err
	}
	if m.jw != nil {
		if _, err := m.jw.Append(evSnapshot, snap.ID, "", snap); err != nil {
			return fmt.Errorf("workspace: %w: %v", ErrJournal, err)
		}
	}
	m.mu.Lock()
	m.unindexWorkspaceLocked(snap.ID)
	en := &entry{ws: ws, lastUsed: m.now()}
	m.items[snap.ID] = en
	m.indexLocked(en, snap.ID, ws.Annotators())
	m.mu.Unlock()
	return nil
}

// AdoptMaterialized replays another shard's rule materializations for a
// dataset into the shared index. Fresh specs are journaled via the
// materialize hook; already-known ones dedup to nothing.
func (m *Manager) AdoptMaterialized(dataset string, specs []string) error {
	eng, ok := m.engines[dataset]
	if !ok {
		return fmt.Errorf("workspace: unknown dataset %q", dataset)
	}
	for _, spec := range specs {
		if _, _, err := eng.MaterializeRule(spec); err != nil {
			return fmt.Errorf("workspace: adopt materialized rule %q: %w", spec, err)
		}
	}
	return nil
}

// MaterializedSpecs returns the journaled rule materializations recorded for
// a dataset, in journal order.
func (m *Manager) MaterializedSpecs(dataset string) []string {
	m.matMu.Lock()
	defer m.matMu.Unlock()
	return append([]string(nil), m.matSpecs[dataset]...)
}

// IDsByDataset returns the live workspace IDs on the given dataset, sorted.
func (m *Manager) IDsByDataset(dataset string) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for id, en := range m.items {
		if en.ws.Dataset() == dataset {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// EvictDataset drops every live workspace on the given dataset (journaling
// the evictions) and returns the dropped IDs — the demotion path: a fenced
// ex-primary must stop serving state that now lives on the promoted shard.
func (m *Manager) EvictDataset(dataset, reason string) []string {
	m.gate.RLock()
	defer m.gate.RUnlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for id, en := range m.items {
		if en.ws.Dataset() == dataset {
			m.evictLocked(id, reason)
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

func errUnknown(id string) error {
	return fmt.Errorf("workspace: %q: %w", id, ErrUnknownWorkspace)
}

// RecoveryStats reports what Recover reconstructed.
type RecoveryStats struct {
	// Events is the number of journal events read.
	Events int
	// Workspaces is the number of live workspaces after recovery.
	Workspaces int
	// Skipped maps workspace IDs that could not be recovered to the reason.
	Skipped map[string]string
}

// Recover replays a journal's events through the same apply methods that
// served them live, reconstructing every live workspace byte-identically.
// It must be called once, before the manager serves traffic. Workspaces
// whose replay fails (missing dataset, corpus mismatch, an engine whose
// fingerprint differs from the journaled one, or a journaled assignment the
// workspace could not have made) are skipped and reported in the stats; the
// rest recover normally. The event-by-event apply logic
// lives in Replayer (replay.go), shared with the replication standby path.
func (m *Manager) Recover(events []journal.Event) RecoveryStats {
	start := time.Now()
	r := m.NewReplayer()
	defer r.Close()
	for _, ev := range events {
		r.Apply(ev)
	}
	// Replay changes attachments through the workspaces alone; index what
	// it left live.
	m.mu.Lock()
	for id, en := range m.items {
		m.indexLocked(en, id, en.ws.Annotators())
	}
	m.mu.Unlock()
	stats := r.Stats()
	recoveryDuration.Set(time.Since(start).Seconds())
	recoveryEvents.Set(float64(stats.Events))
	recoverySkipped.Set(float64(len(stats.Skipped)))
	return stats
}

// replayTarget resolves the workspace an event applies to during recovery.
// Events for unknown workspaces are skipped silently: they are the benign
// trace of an operation that raced a TTL eviction (the live answer landed
// after the evict event; the final state — workspace gone — is identical).
func (m *Manager) replayTarget(id string, raw json.RawMessage, v any, broken map[string]string) (*Workspace, bool) {
	if _, bad := broken[id]; bad {
		return nil, false
	}
	if json.Unmarshal(raw, v) != nil {
		return nil, false
	}
	m.mu.Lock()
	en, ok := m.items[id]
	m.mu.Unlock()
	if !ok {
		return nil, false
	}
	return en.ws, true
}
