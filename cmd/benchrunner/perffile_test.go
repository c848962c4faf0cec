package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func writeFixture(t *testing.T, body []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_perf.json")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// topLevelKeys returns the keys of the JSON object doc in file order.
func topLevelKeys(t *testing.T, doc []byte) []string {
	t.Helper()
	var keys []string
	dec := json.NewDecoder(bytes.NewReader(doc))
	if _, err := dec.Token(); err != nil {
		t.Fatal(err)
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestUpdatePerfReportKeepsCommittedFile pins that a rewrite of the
// committed BENCH_perf.json that sets nothing changes no byte, and one that
// sets a section leaves every line outside that section byte-identical and
// in place. (Key order under shuffled input is TestUpdatePerfReportFixedOrder's.)
func TestUpdatePerfReportKeepsCommittedFile(t *testing.T) {
	orig := readFile(t, "../../BENCH_perf.json")
	path := writeFixture(t, orig)
	if err := updatePerfReport(path, func(*PerfReport) {}); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); !bytes.Equal(got, orig) {
		t.Fatalf("a rewrite that sets nothing changed the file:\n%s", got)
	}

	scale := &ScalePerf{Dataset: "tweets", Sentences: 42}
	if err := updatePerfReport(path, func(r *PerfReport) { r.ScaleSection = scale }); err != nil {
		t.Fatal(err)
	}
	got := strings.Split(string(readFile(t, path)), "\n")
	want := strings.Split(string(orig), "\n")
	// The scale section is the last member: every line before it is kept.
	start := slices.Index(want, `  "scale": {`)
	if start < 0 {
		t.Fatal("committed file has no scale section")
	}
	if !slices.Equal(got[:start+1], want[:start+1]) {
		t.Fatalf("lines outside the scale section changed:\n%s", strings.Join(got[:start+1], "\n"))
	}
	if !slices.Equal(got[len(got)-2:], want[len(want)-2:]) {
		t.Fatalf("closing lines changed: %q", got[len(got)-2:])
	}
	rep, err := readPerfReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if *rep.ScaleSection != *scale {
		t.Fatalf("scale section reads back as %+v, want %+v", *rep.ScaleSection, *scale)
	}
}

// TestUpdatePerfReportFixedOrder pins that a file with its keys in another
// order comes out in PerfReport field order with every value kept, so runs
// of different experiments never reorder the file between them.
func TestUpdatePerfReportFixedOrder(t *testing.T) {
	const shuffled = `{
  "scale": {"dataset": "professions", "sentences": 1000000},
  "autolabel": {"dataset": "directions", "rounds": 53}
}
`
	path := writeFixture(t, []byte(shuffled))
	before, err := readPerfReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := updatePerfReport(path, func(r *PerfReport) { r.Autolabel.Rounds = 54 }); err != nil {
		t.Fatal(err)
	}
	got := readFile(t, path)
	wantKeys := []string{"autolabel", "scale"}
	if keys := topLevelKeys(t, got); !slices.Equal(keys, wantKeys) {
		t.Fatalf("keys %v, want %v", keys, wantKeys)
	}
	after, err := readPerfReport(path)
	if err != nil {
		t.Fatal(err)
	}
	before.Autolabel.Rounds = 54
	if *after.Autolabel != *before.Autolabel || *after.ScaleSection != *before.ScaleSection {
		t.Fatalf("values changed:\n got %+v\nwant %+v", after, before)
	}
}
