package workspace

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/oracle"
)

var updatePins = flag.Bool("update-pins", false, "rewrite the testdata/pin transcripts from the current code")

// TestBitExactPinWorkspace pins a two-annotator workspace to the bit:
// interleaved suggest/answer rounds, one detach that releases a pending
// suggestion to the pool, every suggestion's statistics (float bits of the
// benefits included), and the final report, snapshot and export bytes.
func TestBitExactPinWorkspace(t *testing.T) {
	// The subtest is named for the coverage kernel the index publishes:
	// the adaptive (compressed) set.
	t.Run("adaptive", pinWorkspace)
}

func pinWorkspace(t *testing.T) {
	eng := newTestEngine(t)
	ws, err := New(eng, "pin", "directions", Options{SeedRules: []string{seedRule}, Budget: 16, Seed: 42}, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := oracle.NewGroundTruth(eng.Corpus())
	var b strings.Builder
	suggest := func(name string) (Suggestion, bool) {
		sug, ok, err := ws.Suggest(name)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			fmt.Fprintf(&b, "%s suggest %s cov=%d new=%d benefit=%016x avg=%016x samples=%v q=%d left=%d\n",
				name, sug.Key, sug.Coverage, sug.NewCoverage,
				math.Float64bits(sug.Benefit), math.Float64bits(sug.AvgBenefit), sug.SampleIDs, sug.Question, sug.BudgetLeft)
		} else {
			fmt.Fprintf(&b, "%s suggest none\n", name)
		}
		return sug, ok
	}
	// The ground-truth oracle rejects the broad rules a fresh workspace
	// ranks first, so alice also accepts on a fixed schedule to grow P.
	answer := func(name string, sug Suggestion, force bool) {
		accept := force || o.Answer(oracle.Query{Coverage: ws.annotators[name].pendingCov})
		rec, err := ws.Answer(name, sug.Key, accept)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s answer %s accept=%v added=%v after=%d\n", name, sug.Key, accept, rec.AddedIDs, rec.PositivesAfter)
	}

	for _, name := range []string{"alice", "bob"} {
		if err := ws.Attach(name); err != nil {
			t.Fatal(err)
		}
	}
	second := "bob"
	for round := 0; round < 12; round++ {
		sa, okA := suggest("alice")
		sb, okB := suggest(second)
		if round == 2 {
			// Bob leaves with a suggestion pending; it returns to the pool
			// and carol, attached in his place, may draw it.
			if err := ws.Detach("bob"); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "bob detach\n")
			if err := ws.Attach("carol"); err != nil {
				t.Fatal(err)
			}
			second, okB = "carol", false
		}
		if okA {
			answer("alice", sa, round == 1 || round == 4)
		}
		if okB {
			answer(second, sb, false)
		}
		if !okA && !okB && round > 2 {
			break
		}
	}

	rep, err := json.Marshal(ws.Report())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := json.Marshal(ws.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var export bytes.Buffer
	if err := eng.Corpus().WriteLabeledJSONL(&export, ws.PositivesMap()); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "report %s\n", rep)
	fmt.Fprintf(&b, "snapshot %d bytes sha256=%x\n", len(snap), sha256.Sum256(snap))
	fmt.Fprintf(&b, "export %d bytes sha256=%x\n", export.Len(), sha256.Sum256(export.Bytes()))
	h := fnv.New64a()
	for _, s := range ws.loop.Scores() {
		u := math.Float64bits(s)
		h.Write([]byte{byte(u), byte(u >> 8), byte(u >> 16), byte(u >> 24), byte(u >> 32), byte(u >> 40), byte(u >> 48), byte(u >> 56)})
	}
	fmt.Fprintf(&b, "%d scores fnv64a=%016x\n", len(ws.loop.Scores()), h.Sum64())

	path := filepath.Join("testdata", "pin", "workspace.golden")
	if *updatePins {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record with -update-pins)", err)
	}
	gl, wl := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s diverges at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}
