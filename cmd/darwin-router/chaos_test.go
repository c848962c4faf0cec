package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/replicate"
	"repro/internal/shard"
	"repro/pkg/darwin"
)

// routerHealth mirrors the router's /healthz document.
type routerHealth struct {
	Status     string                `json:"status"`
	Shards     []shard.ShardHealth   `json:"shards"`
	Placements []shard.PlacementInfo `json:"placements"`
}

// waitPlacement polls the router's healthz until the dataset's placement
// shows the wanted primary at (at least) the wanted epoch.
func waitPlacement(t *testing.T, routerURL, dataset, primary string, epoch uint64) shard.PlacementInfo {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	var last routerHealth
	for time.Now().Before(deadline) {
		resp, err := http.Get(routerURL + "/healthz")
		if err == nil {
			var h routerHealth
			if json.NewDecoder(resp.Body).Decode(&h) == nil {
				last = h
			}
			resp.Body.Close()
			for _, p := range last.Placements {
				if p.Dataset == dataset && p.Primary == primary && p.Epoch >= epoch {
					return p
				}
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("router never placed %s on %s@%d; last healthz: %+v", dataset, primary, epoch, last)
	return shard.PlacementInfo{}
}

// waitReplicated polls a shard's replication status directly until its
// primary stream for the dataset is healthy with zero lag.
func waitReplicated(t *testing.T, shardURL, dataset string) {
	t.Helper()
	ctl := replicate.NewControl(shardURL, "", nil)
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, err := ctl.Status(context.Background())
		if err == nil {
			for _, d := range st.Datasets {
				if d.Dataset == dataset && d.Role == replicate.RolePrimary && d.Healthy && d.Lag == 0 && d.AckedUpto > 0 {
					return
				}
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("shard %s never fully replicated %s to its follower", shardURL, dataset)
}

// exportVia streams a labeler's transcript through the router.
func exportVia(t *testing.T, client *darwin.Client, id string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := client.OpenLabeler(id).Export(context.Background(), &buf); err != nil {
		t.Fatalf("export %s: %v", id, err)
	}
	return buf.Bytes()
}

// TestChaosPartitionAndSIGKILLFailoverE2E is the fault-injection end-to-end
// proof of the replication tentpole, with two real darwind processes behind
// a real darwin-router process:
//
//  1. a network partition cuts the router off from the directions primary;
//     the router promotes the follower — acknowledged answers survive with a
//     byte-identical transcript, and the zombie primary's epoch-1 batches
//     are rejected by the promoted shard's fence;
//  2. the partition heals; the router demotes the zombie to follower and the
//     resync stream rebuilds its warm standby;
//  3. the now-primary shard is SIGKILLed mid-annotation; the router promotes
//     again and the same zero-loss, byte-identical guarantees hold.
func TestChaosPartitionAndSIGKILLFailoverE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs darwind + darwin-router binaries; skipped in -short")
	}
	dir := t.TempDir()
	darwind := filepath.Join(dir, "darwind")
	if out, err := exec.Command("go", "build", "-o", darwind, "../darwind").CombinedOutput(); err != nil {
		t.Fatalf("go build darwind: %v\n%s", err, out)
	}
	routerBin := filepath.Join(dir, "darwin-router")
	if out, err := exec.Command("go", "build", "-o", routerBin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build darwin-router: %v\n%s", err, out)
	}

	listenRE := regexp.MustCompile(`listening on ([0-9.:]+)`)
	start := func(bin string, args ...string) (*exec.Cmd, string, *procLogs) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
		logs := &procLogs{}
		addrCh := make(chan string, 1)
		go func() {
			sc := bufio.NewScanner(stderr)
			for sc.Scan() {
				logs.append(sc.Text())
				if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
					addrCh <- m[1]
				}
			}
		}()
		select {
		case addr := <-addrCh:
			return cmd, addr, logs
		case <-time.After(120 * time.Second):
			t.Fatalf("%s did not start listening", bin)
			return nil, "", nil
		}
	}
	shardArgs := func(addr, journal string) []string {
		return []string{
			"-addr", addr,
			"-datasets", "directions,musicians",
			"-scale", "0.05",
			"-seed", "7",
			"-budget", "100",
			"-candidates", "400",
			"-sketch-depth", "4",
			"-journal", journal,
		}
	}
	journalA := filepath.Join(dir, "shard-alpha.jsonl")
	journalB := filepath.Join(dir, "shard-beta.jsonl")
	procA, addrA, _ := start(darwind, shardArgs("127.0.0.1:0", journalA)...)
	_, addrB, logsB := start(darwind, shardArgs("127.0.0.1:0", journalB)...)

	// The router reaches beta only through a partitionable proxy; alpha is
	// reached directly (its failure mode below is SIGKILL, not partition).
	proxyB, err := faultinject.NewProxy("127.0.0.1:0", addrB)
	if err != nil {
		t.Fatal(err)
	}
	defer proxyB.Close()

	_, routerAddr, logsRouter := start(routerBin,
		"-addr", "127.0.0.1:0",
		"-shards", fmt.Sprintf("alpha=http://%s,beta=%s", addrA, proxyB.URL()),
		"-probe-every", "200ms",
		"-retries", "1",
		"-retry-backoff", "50ms",
		"-shard-timeout", "5s",
		"-failover-threshold", "2",
		"-probe-backoff-max", "1s",
	)
	routerURL := "http://" + routerAddr
	client := darwin.NewClient(routerURL, "")
	ctx := context.Background()

	// The ring puts directions on beta (musicians on alpha); the router's
	// reconcile must bootstrap that placement with alpha as follower.
	waitPlacement(t, routerURL, "directions", "beta", 1)

	lab, err := client.NewLabeler(ctx, darwin.CreateOptions{
		Dataset: "directions", Mode: darwin.ModeWorkspace, Annotator: "alice",
		SeedRules: []string{"best way to get to"}, Budget: 60, Seed: 9,
	})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	answered := 0
	annotate := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			sug, err := lab.Suggest(ctx)
			if err != nil {
				t.Fatalf("suggest (after %d answers): %v", answered, err)
			}
			if err := lab.Answer(ctx, darwin.Answer{Key: sug.Key, Accept: answered%3 == 0}); err != nil {
				t.Fatalf("answer %d: %v", answered, err)
			}
			answered++
		}
	}
	annotate(6)
	repBefore, err := lab.Report(ctx)
	if err != nil {
		t.Fatal(err)
	}
	waitReplicated(t, "http://"+addrB, "directions")
	exportBefore := exportVia(t, client, lab.ID())

	// --- Scenario 1: partition the primary. ---
	proxyB.Partition()
	waitPlacement(t, routerURL, "directions", "alpha", 2)

	repAfter, err := lab.Report(ctx)
	if err != nil {
		t.Fatalf("report through promoted follower: %v", err)
	}
	if len(repAfter.History) != len(repBefore.History) || repAfter.Positives != repBefore.Positives {
		t.Fatalf("acknowledged answers lost in partition failover: %d/%d -> %d/%d",
			len(repBefore.History), repBefore.Positives, len(repAfter.History), repAfter.Positives)
	}
	if got := exportVia(t, client, lab.ID()); !bytes.Equal(got, exportBefore) {
		t.Fatalf("promoted follower's transcript is not byte-identical (%d vs %d bytes)", len(got), len(exportBefore))
	}
	// The promoted shard's fence rejects the zombie primary's epoch-1
	// appends.
	zombieCtl := replicate.NewControl("http://"+addrA, "", nil)
	_, err = zombieCtl.SendEvents(ctx, "directions", replicate.Batch{Epoch: 1, Gen: 1, Reset: true, From: 0, Upto: 1})
	if !errors.Is(err, replicate.ErrFenced) {
		t.Fatalf("zombie epoch-1 batch: err=%v, want ErrFenced", err)
	}
	annotate(4) // keep annotating through the new primary

	// --- Scenario 2: heal; the zombie is demoted and resynced. ---
	proxyB.Heal()
	waitForLog(t, "shard beta", logsB, "demoted for directions at epoch 2")
	waitReplicated(t, "http://"+addrA, "directions")

	// --- Scenario 3: SIGKILL the current primary mid-annotation. ---
	repBefore, err = lab.Report(ctx)
	if err != nil {
		t.Fatal(err)
	}
	exportBefore = exportVia(t, client, lab.ID())
	if err := procA.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	procA.Wait()
	waitPlacement(t, routerURL, "directions", "beta", 3)

	repAfter, err = lab.Report(ctx)
	if err != nil {
		t.Fatalf("report after SIGKILL failover: %v", err)
	}
	if len(repAfter.History) != len(repBefore.History) || repAfter.Positives != repBefore.Positives {
		t.Fatalf("acknowledged answers lost in SIGKILL failover: %d/%d -> %d/%d",
			len(repBefore.History), repBefore.Positives, len(repAfter.History), repAfter.Positives)
	}
	if got := exportVia(t, client, lab.ID()); !bytes.Equal(got, exportBefore) {
		t.Fatalf("post-SIGKILL transcript is not byte-identical (%d vs %d bytes)", len(got), len(exportBefore))
	}
	annotate(3)
	// The router promotes the dead shard's datasets one after another, in
	// name order, so musicians (whose primary alpha died in the same
	// SIGKILL) may still be promoting once directions is served again. Its
	// placement on beta means beta has counted the promotion.
	waitPlacement(t, routerURL, "musicians", "beta", 2)

	// --- Telemetry: the failover trail is on /metrics. ---
	routerMetrics := scrapeMetrics(t, routerURL)
	if !strings.Contains(routerMetrics, `darwin_router_promotions_total{dataset="directions"} 2`) {
		t.Errorf("router /metrics does not count both promotions:\n%s", grepMetric(routerMetrics, "darwin_router_promotions"))
	}
	shardMetrics := scrapeMetrics(t, "http://"+addrB)
	for _, series := range []string{
		`darwin_replication_lag_events{dataset="directions"}`,
		`darwin_replication_applied_events_total{dataset="directions"}`,
		// Two promotions: directions (scenario 3) and musicians, whose
		// primary alpha died in the same SIGKILL.
		"darwin_replication_promotions_total 2",
	} {
		if !strings.Contains(shardMetrics, series) {
			t.Errorf("shard beta /metrics is missing %q:\n%s", series, grepMetric(shardMetrics, "darwin_replication"))
		}
	}
	if !logsRouter.contains("failed over") {
		t.Error("router log never recorded a failover")
	}
}

// grepMetric filters an exposition body to lines containing sub, for
// readable failure messages.
func grepMetric(body, sub string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, sub) && !strings.HasPrefix(line, "#") {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
