package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// TestCrashRecoverySIGKILL is the end-to-end durability test: a real
// darwind process serving a two-annotator workspace and a solo session is
// killed with SIGKILL mid-session (no shutdown hook runs), restarted with
// the same -journal, and must come back with byte-identical workspace and
// session reports and keep serving suggestions from where it left off.
func TestCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the darwind binary; skipped in -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "darwind")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	journal := filepath.Join(dir, "journal.jsonl")

	// Identical flags across runs: the engine must rebuild identically for
	// replay to be deterministic.
	args := []string{
		"-addr", "127.0.0.1:0",
		"-datasets", "directions",
		"-scale", "0.05",
		"-seed", "7",
		"-budget", "100",
		"-candidates", "400",
		"-sketch-depth", "4",
		"-journal", journal,
	}
	listenRE := regexp.MustCompile(`listening on ([0-9.:]+)`)
	start := func() (*exec.Cmd, string) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		addrCh := make(chan string, 1)
		go func() {
			sc := bufio.NewScanner(stderr)
			for sc.Scan() {
				if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
					addrCh <- m[1]
				}
			}
		}()
		select {
		case addr := <-addrCh:
			return cmd, addr
		case <-time.After(60 * time.Second):
			cmd.Process.Kill()
			t.Fatal("darwind did not start listening")
			return nil, ""
		}
	}

	do := func(addr, method, path string, body, out any) int {
		t.Helper()
		var rd *bytes.Reader
		if body != nil {
			b, _ := json.Marshal(body)
			rd = bytes.NewReader(b)
		} else {
			rd = bytes.NewReader(nil)
		}
		req, err := http.NewRequest(method, "http://"+addr+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		if out != nil {
			json.NewDecoder(resp.Body).Decode(out)
		}
		return resp.StatusCode
	}

	proc1, addr := start()
	defer proc1.Process.Kill()

	// Create a workspace with two annotators and answer >= 20 steps.
	var created struct {
		ID string `json:"id"`
	}
	if status := do(addr, "POST", "/v1/workspaces", map[string]any{
		"dataset":    "directions",
		"seed_rules": []string{"best way to get to"},
		"budget":     60,
		"seed":       3,
	}, &created); status != http.StatusCreated {
		t.Fatalf("create workspace: status %d", status)
	}
	base := "/v1/workspaces/" + created.ID
	for _, name := range []string{"alice", "bob"} {
		if status := do(addr, "POST", base+"/annotators", map[string]string{"annotator": name}, nil); status != http.StatusCreated {
			t.Fatalf("attach %s: status %d", name, status)
		}
	}
	answered := 0
	for q := 0; answered < 24; q++ {
		name := []string{"alice", "bob"}[q%2]
		var sug struct {
			Done bool   `json:"done"`
			Key  string `json:"key"`
		}
		if status := do(addr, "GET", base+"/suggest?annotator="+name, nil, &sug); status != http.StatusOK {
			t.Fatalf("suggest: status %d", status)
		}
		if sug.Done {
			break
		}
		if status := do(addr, "POST", base+"/answer", map[string]any{
			"annotator": name, "key": sug.Key, "accept": q%3 == 0,
		}, nil); status != http.StatusOK {
			t.Fatalf("answer: status %d", status)
		}
		answered++
	}
	if answered < 20 {
		t.Fatalf("only answered %d steps before candidates ran dry", answered)
	}

	var before any
	if status := do(addr, "GET", base+"/report", nil, &before); status != http.StatusOK {
		t.Fatalf("report: status %d", status)
	}

	// A solo /v2 session rides the same run: journaled to
	// "<journal>.sessions", keyed and blind answers alike, it must come back
	// with the same report too.
	var sess struct {
		ID string `json:"id"`
	}
	if status := do(addr, "POST", "/v2/labelers", map[string]any{
		"dataset":    "directions",
		"seed_rules": []string{"best way to get to"},
		"budget":     30,
		"seed":       5,
	}, &sess); status != http.StatusCreated {
		t.Fatalf("create session: status %d", status)
	}
	sessBase := "/v2/labelers/" + sess.ID
	for q := 0; q < 8; q++ {
		var sug struct {
			Key string `json:"key"`
		}
		if status := do(addr, "GET", sessBase+"/suggestion", nil, &sug); status != http.StatusOK {
			t.Fatalf("session suggestion: status %d", status)
		}
		if status := do(addr, "POST", sessBase+"/answers", map[string]any{
			"answers": []map[string]any{{"key": sug.Key, "accept": q%3 == 0}},
		}, nil); status != http.StatusOK {
			t.Fatalf("session answer: status %d", status)
		}
	}
	if status := do(addr, "POST", sessBase+"/answers", map[string]any{
		"answers": []map[string]any{{"accept": true}, {"accept": false}},
	}, nil); status != http.StatusOK {
		t.Fatalf("session blind answers: status %d", status)
	}
	var sessBefore any
	if status := do(addr, "GET", sessBase+"/report", nil, &sessBefore); status != http.StatusOK {
		t.Fatalf("session report: status %d", status)
	}

	// Kill -9: no flush hook, no graceful shutdown. Every acknowledged
	// answer must already be in the kernel's page cache for the journal.
	if err := proc1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	proc1.Wait()
	if fi, err := os.Stat(journal); err != nil || fi.Size() == 0 {
		t.Fatalf("journal missing or empty after kill: %v", err)
	}

	proc2, addr2 := start()
	defer func() {
		proc2.Process.Kill()
		proc2.Wait()
	}()

	var after any
	if status := do(addr2, "GET", base+"/report", nil, &after); status != http.StatusOK {
		t.Fatalf("report after restart: status %d", status)
	}
	if !reflect.DeepEqual(before, after) {
		b1, _ := json.MarshalIndent(before, "", " ")
		b2, _ := json.MarshalIndent(after, "", " ")
		t.Fatalf("report changed across SIGKILL+restart:\nbefore: %s\nafter:  %s", b1, b2)
	}

	var sessAfter any
	if status := do(addr2, "GET", sessBase+"/report", nil, &sessAfter); status != http.StatusOK {
		t.Fatalf("session report after restart: status %d", status)
	}
	if !reflect.DeepEqual(sessBefore, sessAfter) {
		b1, _ := json.MarshalIndent(sessBefore, "", " ")
		b2, _ := json.MarshalIndent(sessAfter, "", " ")
		t.Fatalf("session report changed across SIGKILL+restart:\nbefore: %s\nafter:  %s", b1, b2)
	}
	if status := do(addr2, "GET", sessBase+"/suggestion", nil, nil); status != http.StatusOK {
		t.Fatalf("post-recovery session suggestion: status %d", status)
	}

	// The recovered workspace keeps serving: both annotators can step on.
	for _, name := range []string{"alice", "bob"} {
		var sug struct {
			Done bool   `json:"done"`
			Key  string `json:"key"`
		}
		if status := do(addr2, "GET", fmt.Sprintf("%s/suggest?annotator=%s", base, name), nil, &sug); status != http.StatusOK {
			t.Fatalf("post-recovery suggest for %s: status %d", name, status)
		}
		if !sug.Done && sug.Key == "" {
			t.Fatalf("post-recovery suggestion for %s is empty", name)
		}
	}
}
