package autolabel

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/journal"
)

// TestManagerRebuildsShortOutput pins that a done job whose output is
// shorter than its done record says (what a machine crash can leave of an
// output renamed into place without an fsync) is re-run on reopen instead of
// being served.
func TestManagerRebuildsShortOutput(t *testing.T) {
	eng := testEngine(t)
	dir := t.TempDir()
	m := newTestManager(t, dir, eng)
	st, err := m.Submit("directions", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, m, st.ID)
	want := readOutput(t, m, st.ID, 0)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(m.OutputPath(st.ID), st.OutputBytes/2); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, dir, eng)
	defer m2.Close()
	st2 := waitDone(t, m2, st.ID)
	if st2.State != StateDone || st2.OutputBytes != st.OutputBytes {
		t.Fatalf("rebuilt status %+v, want done with %d bytes", st2, st.OutputBytes)
	}
	if got := readOutput(t, m2, st.ID, 0); !bytes.Equal(got, want) {
		t.Errorf("rebuilt output has %d bytes and differs from the original %d", len(got), len(want))
	}
}

// TestManagerUpgradesLegacyJournal opens a jobs.log written as bare job
// records, one per line, holding a finished and an interrupted job. The open
// rewrites it as journal events numbered from 1, both jobs keep their ids
// and reach done with their outputs, and a second open reads the events as
// they are.
func TestManagerUpgradesLegacyJournal(t *testing.T) {
	eng := testEngine(t)
	dir := t.TempDir()
	spec := testSpec()
	direct, res := runOnce(t, eng, spec)
	const finished, interrupted = "jfinished00000000", "jinterrupted00000"
	if err := os.WriteFile(filepath.Join(dir, finished+".jsonl"), direct, 0o644); err != nil {
		t.Fatal(err)
	}
	var legacy []byte
	for _, rec := range []jobRecord{
		{Type: "create", ID: finished, Dataset: "directions", Spec: &spec, Unix: 1},
		{Type: "create", ID: interrupted, Dataset: "directions", Spec: &spec, Unix: 2},
		{Type: "done", ID: finished, Result: &res, Unix: time.Now().Unix()},
	} {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		legacy = append(append(legacy, line...), '\n')
	}
	path := filepath.Join(dir, "jobs.log")
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	checkJobs := func(m *Manager) {
		t.Helper()
		for _, id := range []string{finished, interrupted} {
			st := waitDone(t, m, id)
			if st.State != StateDone || st.OutputBytes != res.OutputBytes {
				t.Fatalf("job %s: status %+v, want done with %d bytes", id, st, res.OutputBytes)
			}
			if got := readOutput(t, m, id, 0); !bytes.Equal(got, direct) {
				t.Errorf("job %s: output differs from direct Run output", id)
			}
		}
		if got := len(m.Jobs()); got != 2 {
			t.Errorf("manager holds %d jobs, want 2", got)
		}
	}
	m := newTestManager(t, dir, eng)
	checkJobs(m)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	upgraded, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var types []string
	sc := bufio.NewScanner(bytes.NewReader(upgraded))
	for sc.Scan() {
		var ev journal.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Seq != uint64(len(types)+1) || len(ev.Data) == 0 {
			t.Fatalf("line %d is not journal event %d with data: %s", len(types)+1, len(types)+1, sc.Bytes())
		}
		types = append(types, ev.Type)
	}
	// The rewrite keeps each job's create and terminal record; the
	// interrupted job's done record is appended when its re-run finishes.
	if want := []string{"create", "done", "create", "done"}; !slices.Equal(types, want) {
		t.Fatalf("upgraded journal event types %v, want %v", types, want)
	}

	m2 := newTestManager(t, dir, eng)
	defer m2.Close()
	checkJobs(m2)
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, upgraded) {
		t.Errorf("second open rewrote the upgraded journal (err %v)", err)
	}
}
