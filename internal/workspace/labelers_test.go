package workspace

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
)

// checkLabelerIndex holds the manager's labeler index to the attachments its
// workspaces hold: Attachment resolves exactly the ids LabelerID derives
// from IDs() × each workspace's attached annotators, LabelerIDs lists them,
// and no id of a gone attachment (any id in seen) resolves.
func checkLabelerIndex(t *testing.T, m *Manager, seen map[string]bool, step int, op string) {
	t.Helper()
	want := make(map[string]Attachment)
	for _, id := range m.IDs() {
		ws, ok := m.Peek(id)
		if !ok {
			t.Fatalf("step %d (%s): listed workspace %s is not live", step, op, id)
		}
		for _, an := range ws.Snapshot().Annotators {
			want[LabelerID(id, an.Name)] = Attachment{Workspace: id, Annotator: an.Name}
		}
	}
	var wantIDs []string
	for lid, a := range want {
		seen[lid] = true
		wantIDs = append(wantIDs, lid)
		if got, ok := m.Attachment(lid); !ok || got != a {
			t.Fatalf("step %d (%s): Attachment(%s) = %+v, %v; want %+v", step, op, lid, got, ok, a)
		}
	}
	for lid := range seen {
		if _, live := want[lid]; !live {
			if got, ok := m.Attachment(lid); ok {
				t.Fatalf("step %d (%s): gone labeler %s still resolves to %+v", step, op, lid, got)
			}
		}
	}
	sort.Strings(wantIDs)
	got := m.LabelerIDs(m.IDs())
	if len(got) != len(wantIDs) {
		t.Fatalf("step %d (%s): LabelerIDs = %v, want %v", step, op, got, wantIDs)
	}
	for i := range got {
		if got[i] != wantIDs[i] {
			t.Fatalf("step %d (%s): LabelerIDs = %v, want %v", step, op, got, wantIDs)
		}
	}
	if ids := m.LabelerIDs(nil); len(ids) != 0 {
		t.Fatalf("step %d (%s): LabelerIDs(nil) = %v, want none", step, op, ids)
	}
	m.mu.Lock()
	indexed := len(m.labelers)
	m.mu.Unlock()
	if indexed != len(want) {
		t.Fatalf("step %d (%s): the index holds %d labelers, the workspaces %d", step, op, indexed, len(want))
	}
}

// TestLabelerIndexMatchesAttachments runs random walks of workspace
// operations — create, attach, detach, idle-detach sweep, TTL sweep, evict,
// EvictDataset, AdoptSnapshot (of the same or a fresh id, from a possibly
// stale snapshot) and a journal Recover into a new manager — and checks the
// labeler index against the workspaces' own attachments after every step.
func TestLabelerIndexMatchesAttachments(t *testing.T) {
	engines := map[string]*core.Engine{"directions": newTestEngine(t)}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { walkLabelerIndex(t, engines, seed) })
	}
}

func walkLabelerIndex(t *testing.T, engines map[string]*core.Engine, seed int64) {
	const attachmentTTL = time.Hour
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	cfg := ManagerConfig{MaxWorkspaces: 5, AttachmentTTL: attachmentTTL}
	open := func() (*Manager, []journal.Event) {
		jw, events, err := journal.Open(path, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { jw.Close() })
		return NewManager(engines, jw, cfg), events
	}
	m, _ := open()
	rng := rand.New(rand.NewSource(seed))
	names := []string{"ann", "bob", "cy", "dee"}
	seen := make(map[string]bool)
	ops := make(map[string]int)
	var snaps []*Snapshot

	pickWS := func() (string, bool) {
		ids := m.IDs()
		if len(ids) == 0 {
			return "", false
		}
		return ids[rng.Intn(len(ids))], true
	}
	// backdate marks a random subset of live entries (workspaces, or their
	// attachments) as idle past their TTL, so the next sweep reclaims them.
	backdate := func(attachments bool) {
		for _, id := range m.IDs() {
			m.mu.Lock()
			en := m.items[id]
			if !attachments && rng.Intn(2) == 0 {
				en.lastUsed = en.lastUsed.Add(-2 * m.cfg.TTL)
			}
			m.mu.Unlock()
			if attachments {
				en.ws.mu.Lock()
				for _, an := range en.ws.annotators {
					if rng.Intn(2) == 0 {
						an.lastSeen = an.lastSeen.Add(-2 * attachmentTTL)
					}
				}
				en.ws.mu.Unlock()
			}
		}
	}

	for step := 0; step < 200; step++ {
		var op string
		switch r := rng.Intn(100); {
		case r < 15:
			op = "create"
			m.Create("directions", Options{SeedRules: []string{seedRule}, Budget: 10})
		case r < 45:
			op = "attach"
			if id, ok := pickWS(); ok {
				m.Attach(id, names[rng.Intn(len(names))])
			}
		case r < 62:
			op = "detach"
			if id, ok := pickWS(); ok {
				m.Detach(id, names[rng.Intn(len(names))])
			}
		case r < 70:
			op = "idle-detach sweep"
			backdate(true)
			m.Sweep()
		case r < 75:
			op = "ttl sweep"
			backdate(false)
			m.Sweep()
		case r < 80:
			op = "evict"
			if id, ok := pickWS(); ok {
				m.Evict(id, "test")
			}
		case r < 82:
			op = "evict dataset"
			m.EvictDataset("directions", "test")
		case r < 88:
			op = "snapshot"
			if id, ok := pickWS(); ok {
				if ws, live := m.Peek(id); live {
					snaps = append(snaps, ws.Snapshot())
				}
			}
		case r < 95:
			op = "adopt snapshot"
			if len(snaps) == 0 {
				continue
			}
			snap := *snaps[rng.Intn(len(snaps))]
			if rng.Intn(2) == 0 {
				id, err := newWorkspaceID()
				if err != nil {
					t.Fatal(err)
				}
				snap.ID = id
			}
			if err := m.AdoptSnapshot(&snap); err != nil {
				t.Fatalf("step %d: adopt snapshot: %v", step, err)
			}
		default:
			op = "recover"
			if err := m.Compact(); err != nil {
				t.Fatal(err)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			var events []journal.Event
			m, events = open()
			m.Recover(events)
		}
		checkLabelerIndex(t, m, seen, step, op)
		ops[op]++
	}
	if len(ops) != 10 || len(seen) < 10 {
		t.Fatalf("the walk ran %v and attached %d distinct labelers", ops, len(seen))
	}
	t.Logf("ops %v, %d distinct labelers", ops, len(seen))
}

// TestLabelerIndexUnderConcurrentAttachments attaches, detaches, resolves
// and lists the same few names on one workspace from several goroutines at
// once (run it under -race), then holds the index to the workspace's
// attachments.
func TestLabelerIndexUnderConcurrentAttachments(t *testing.T) {
	m := newTestManager(t, "", ManagerConfig{})
	ws, err := m.Create("directions", Options{SeedRules: []string{seedRule}, Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"ann", "bob"}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 300; i++ {
				name := names[rng.Intn(len(names))]
				switch rng.Intn(3) {
				case 0:
					m.Attach(ws.ID(), name)
				case 1:
					m.Detach(ws.ID(), name)
				default:
					m.Attachment(LabelerID(ws.ID(), name))
					m.LabelerIDs(m.IDs())
				}
			}
		}()
	}
	wg.Wait()
	checkLabelerIndex(t, m, make(map[string]bool), 0, "concurrent attachments")
}

// TestAttachmentLookupsTakeNoWorkspaceLock holds a workspace's mutex, as an
// in-flight suggest does through a hierarchy regeneration, and expects
// Attachment and LabelerIDs for its attachment to return regardless.
func TestAttachmentLookupsTakeNoWorkspaceLock(t *testing.T) {
	m := newTestManager(t, "", ManagerConfig{})
	ws, err := m.Create("directions", Options{SeedRules: []string{seedRule}, Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(ws.ID(), "alice"); err != nil {
		t.Fatal(err)
	}
	lid := LabelerID(ws.ID(), "alice")

	ws.mu.Lock()
	defer ws.mu.Unlock()
	var (
		a   Attachment
		ok  bool
		ids []string
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		a, ok = m.Attachment(lid)
		ids = m.LabelerIDs([]string{ws.ID()})
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("a labeler lookup waited on the workspace lock")
	}
	if !ok || a != (Attachment{Workspace: ws.ID(), Annotator: "alice"}) || len(ids) != 1 || ids[0] != lid {
		t.Fatalf("Attachment = %+v, %v; LabelerIDs = %v", a, ok, ids)
	}
}

// TestSweepDoesNotStallLookups pins that a sweep holds no manager lock while
// it detaches idle annotators: with one workspace's lock held, as an
// in-flight suggest holds it, a Sweep waits on that workspace alone, and a
// lookup of another workspace still returns.
func TestSweepDoesNotStallLookups(t *testing.T) {
	m := newTestManager(t, "", ManagerConfig{AttachmentTTL: time.Minute})
	busy, err := m.Create("directions", Options{SeedRules: []string{seedRule}, Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	other, err := m.Create("directions", Options{SeedRules: []string{seedRule}, Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(busy.ID(), "alice"); err != nil {
		t.Fatal(err)
	}
	// Past the attachment TTL, well inside the workspace TTL: the sweep
	// detaches alice and evicts nothing.
	m.now = func() time.Time { return time.Now().Add(2 * time.Minute) }

	busy.mu.Lock()
	swept := make(chan struct{})
	go func() {
		defer close(swept)
		m.Sweep()
	}()
	time.Sleep(100 * time.Millisecond) // let the sweep reach the busy workspace
	peeked := make(chan bool, 1)
	go func() {
		_, ok := m.Peek(other.ID())
		peeked <- ok
	}()
	select {
	case ok := <-peeked:
		if !ok {
			t.Error("Peek lost a live workspace during a sweep")
		}
	case <-time.After(2 * time.Second):
		busy.mu.Unlock()
		<-swept
		t.Fatal("Peek of another workspace waited behind a sweep blocked on a busy workspace")
	}
	busy.mu.Unlock()
	<-swept
	if _, ok := m.Attachment(LabelerID(busy.ID(), "alice")); ok {
		t.Error("the sweep left the idle annotator attached")
	}
	if got := busy.Annotators(); len(got) != 0 {
		t.Errorf("busy workspace still has annotators %v after the sweep", got)
	}
}

// TestCreateDoesNotWaitOnIdleDetach holds one workspace's lock, as an
// in-flight suggest does, with an annotator past the attachment TTL, and
// requires a create to return meanwhile: a create makes room by evicting
// expired workspaces only and leaves idle detaches to the janitor.
func TestCreateDoesNotWaitOnIdleDetach(t *testing.T) {
	m := newTestManager(t, "", ManagerConfig{AttachmentTTL: time.Minute})
	busy, err := m.Create("directions", Options{SeedRules: []string{seedRule}, Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(busy.ID(), "alice"); err != nil {
		t.Fatal(err)
	}
	m.now = func() time.Time { return time.Now().Add(2 * time.Minute) }

	busy.mu.Lock()
	created := make(chan error, 1)
	go func() {
		_, err := m.Create("directions", Options{SeedRules: []string{seedRule}, Budget: 10})
		created <- err
	}()
	select {
	case err := <-created:
		busy.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		busy.mu.Unlock()
		<-created
		t.Fatal("Create waited on the lock of a workspace with an idle annotator")
	}
	if got := busy.Annotators(); len(got) != 1 {
		t.Errorf("create detached idle annotators: %v left attached, want [alice]", got)
	}
	if m.Sweep(); len(busy.Annotators()) != 0 {
		t.Errorf("the janitor's sweep left %v attached", busy.Annotators())
	}
}
