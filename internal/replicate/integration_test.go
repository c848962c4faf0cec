// Integration tests for the replication pipeline, driven through two real
// server instances (httptest) the way the router drives real shards. They
// live in an external test package because internal/server links replicate
// back in.
package replicate_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/embedding"
	"repro/internal/faultinject"
	"repro/internal/grammar"
	"repro/internal/replicate"
	"repro/internal/server"
	"repro/internal/tokensregex"
	"repro/pkg/darwin"
)

var (
	engineOnce sync.Once
	testEngine *core.Engine
)

// sharedEngine builds the deterministic test engine once per binary; engines
// are read-only, so every test server (primary, follower, restarted primary)
// shares it — exactly how two real shards built from identical flags relate.
func sharedEngine(t testing.TB) *core.Engine {
	t.Helper()
	engineOnce.Do(func() {
		c, err := datagen.ByName("directions", 0.05, 7)
		if err != nil {
			panic(err)
		}
		cfg := core.Config{
			Grammars:        []grammar.Grammar{tokensregex.New()},
			SketchDepth:     4,
			MaxRuleDepth:    6,
			NumCandidates:   400,
			MinRuleCoverage: 2,
			Budget:          100,
			Traversal:       "hybrid",
			Tau:             5,
			Classifier:      classifier.Config{Epochs: 8, LearningRate: 0.3, Seed: 1},
			Embedding:       embedding.Config{Dim: 24, Window: 3, MinCount: 2, Seed: 1},
			Seed:            1,
		}
		testEngine, err = core.New(c, cfg)
		if err != nil {
			panic(err)
		}
	})
	return testEngine
}

// testShard is one in-process darwind: a journaled server behind httptest.
type testShard struct {
	srv  *server.Server
	http *httptest.Server
	ctl  *replicate.Control
	sdk  *darwin.Client
}

func newTestShard(t testing.TB, journalPath string) *testShard {
	t.Helper()
	srv, err := server.New(server.Config{
		JournalPath:            journalPath,
		DefaultBudget:          100,
		ReplicationSync:        true,
		ReplicationSyncTimeout: time.Second,
	}, &server.Dataset{Name: "directions", Engine: sharedEngine(t)})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	sh := &testShard{
		srv:  srv,
		http: hs,
		ctl:  replicate.NewControl(hs.URL, "", nil),
		sdk:  darwin.NewClient(hs.URL, ""),
	}
	t.Cleanup(func() { sh.stop() })
	return sh
}

// stop shuts the shard down cleanly (flushes the journal). Idempotent.
func (sh *testShard) stop() {
	if sh.http != nil {
		sh.http.Close()
		sh.http = nil
		sh.srv.Close()
	}
}

// waitCaughtUp polls the primary's replication status until the dataset's
// stream is healthy with zero lag.
func waitCaughtUp(t *testing.T, ctl *replicate.Control, dataset string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var last replicate.Status
	for time.Now().Before(deadline) {
		st, err := ctl.Status(context.Background())
		if err == nil {
			last = st
			for _, d := range st.Datasets {
				if d.Dataset == dataset && d.Healthy && d.Lag == 0 && d.AckedUpto > 0 {
					return
				}
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("follower never caught up; last status: %+v", last)
}

// export fetches a labeler's full transcript bytes.
func export(t *testing.T, c *darwin.Client, id string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.OpenLabeler(id).Export(context.Background(), &buf); err != nil {
		t.Fatalf("export %s: %v", id, err)
	}
	return buf.Bytes()
}

// chaosSeed lets CI pin the property test's randomness (CHAOS_SEED=n); a
// failing run replays from the seed in its failure message.
func chaosSeed(t *testing.T) int64 {
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", s, err)
		}
		return n
	}
	return 1753
}

// TestReplicationCatchUpProperty is the catch-up property test: a random
// annotation workload interleaved with random partitions of the replication
// link must still leave the follower convergent — after the link heals and
// lag drains, promoting the standby yields byte-identical transcripts for
// every labeler the primary served.
func TestReplicationCatchUpProperty(t *testing.T) {
	seed := chaosSeed(t)
	rng := rand.New(rand.NewSource(seed))
	t.Logf("seed %d (set CHAOS_SEED to replay)", seed)

	dir := t.TempDir()
	primary := newTestShard(t, filepath.Join(dir, "primary.jsonl"))
	follower := newTestShard(t, filepath.Join(dir, "follower.jsonl"))

	// The replication link runs through a partitionable proxy.
	proxy, err := faultinject.NewProxy("127.0.0.1:0", follower.http.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	ctx := context.Background()
	if err := follower.ctl.SetRole(ctx, replicate.RoleDoc{Dataset: "directions", Epoch: 1, Role: replicate.RoleFollower}); err != nil {
		t.Fatal(err)
	}
	if err := primary.ctl.SetRole(ctx, replicate.RoleDoc{
		Dataset: "directions", Epoch: 1, Role: replicate.RolePrimary,
		Follower: &replicate.FollowerSpec{Name: "beta", URL: proxy.URL()},
	}); err != nil {
		t.Fatal(err)
	}

	// Random workload: a few workspace labelers, randomly interleaved
	// suggest/answer steps, with partition/heal cycles at random points.
	var labs []*darwin.RemoteLabeler
	for i := 0; i < 3; i++ {
		lab, err := primary.sdk.NewLabeler(ctx, darwin.CreateOptions{
			Dataset: "directions", Mode: darwin.ModeWorkspace,
			Annotator: fmt.Sprintf("annotator-%d", i),
			SeedRules: []string{"best way to get to"}, Budget: 60, Seed: seed + int64(i),
		})
		if err != nil {
			t.Fatalf("create labeler %d: %v", i, err)
		}
		labs = append(labs, lab)
	}
	partitioned := false
	steps := 24 + rng.Intn(12)
	for step := 0; step < steps; step++ {
		if rng.Float64() < 0.15 {
			if partitioned {
				proxy.Heal()
			} else {
				proxy.Partition()
			}
			partitioned = !partitioned
		}
		lab := labs[rng.Intn(len(labs))]
		sug, err := lab.Suggest(ctx)
		if err != nil {
			if errors.Is(err, darwin.ErrConflict) || errors.Is(err, darwin.ErrBudgetExhausted) {
				continue
			}
			t.Fatalf("step %d suggest: %v", step, err)
		}
		// Every Answer that returns nil below is an acknowledged verdict; the
		// convergence check at the end proves none of them is lost.
		if err := lab.Answer(ctx, darwin.Answer{Key: sug.Key, Accept: rng.Intn(2) == 0}); err != nil {
			t.Fatalf("step %d answer: %v", step, err)
		}
	}
	proxy.Heal()

	waitCaughtUp(t, primary.ctl, "directions")

	resp, err := follower.ctl.Promote(ctx, "directions", 2)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if len(resp.Workspaces) != 3 || len(resp.Labelers) != 3 {
		t.Fatalf("promotion adopted %d workspaces / %d labelers, want 3/3 (%+v)", len(resp.Workspaces), len(resp.Labelers), resp)
	}
	for _, lab := range labs {
		want := export(t, primary.sdk, lab.ID())
		got := export(t, follower.sdk, lab.ID())
		if !bytes.Equal(want, got) {
			t.Errorf("labeler %s: promoted transcript diverged from primary (%d vs %d bytes)", lab.ID(), len(want), len(got))
		}
	}

	// The fence holds: the old primary's stream (still at epoch 1) is now a
	// zombie and its batches must be rejected.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := follower.ctl.Status(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Fences["directions"] == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower fence never reached epoch 2: %+v", st.Fences)
		}
		time.Sleep(20 * time.Millisecond)
	}
	_, err = follower.ctl.SendEvents(ctx, "directions", replicate.Batch{Epoch: 1, Gen: 1, Reset: true, From: 0, Upto: 1})
	if !errors.Is(err, replicate.ErrFenced) {
		t.Fatalf("zombie batch at epoch 1: err=%v, want ErrFenced", err)
	}
}

// TestReplicationTornTailDuringStream crashes the primary mid-append — its
// journal is left with a torn tail — and restarts it against the same
// journal while the follower stream session restarts. The torn record was
// never acknowledged, so the repaired journal plus the stream's full resync
// must still converge the follower to the primary's exact state.
func TestReplicationTornTailDuringStream(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "primary.jsonl")
	primary := newTestShard(t, journalPath)
	follower := newTestShard(t, filepath.Join(dir, "follower.jsonl"))

	ctx := context.Background()
	assign := func(p *testShard) {
		t.Helper()
		if err := follower.ctl.SetRole(ctx, replicate.RoleDoc{Dataset: "directions", Epoch: 1, Role: replicate.RoleFollower}); err != nil {
			t.Fatal(err)
		}
		if err := p.ctl.SetRole(ctx, replicate.RoleDoc{
			Dataset: "directions", Epoch: 1, Role: replicate.RolePrimary,
			Follower: &replicate.FollowerSpec{Name: "beta", URL: follower.http.URL},
		}); err != nil {
			t.Fatal(err)
		}
	}
	assign(primary)

	lab, err := primary.sdk.NewLabeler(ctx, darwin.CreateOptions{
		Dataset: "directions", Mode: darwin.ModeWorkspace, Annotator: "alice",
		SeedRules: []string{"best way to get to"}, Budget: 60, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		sug, err := lab.Suggest(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := lab.Answer(ctx, darwin.Answer{Key: sug.Key, Accept: i%2 == 0}); err != nil {
			t.Fatal(err)
		}
	}

	// Crash: stop the primary, then forge the crash artifact — a torn,
	// unacknowledged record at the journal tail.
	primary.stop()
	f, err := os.OpenFile(journalPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":99999,"type":"answer","ws":"wtorn","data":{"acc`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := faultinject.TearTail(journalPath, 3); err != nil {
		t.Fatal(err)
	}

	// Restart from the repaired journal; the fresh stream session resyncs
	// the follower from sequence 0.
	restarted := newTestShard(t, journalPath)
	assign(restarted)
	for i := 0; i < 3; i++ {
		sug, err := lab2(restarted, lab.ID()).Suggest(ctx)
		if err != nil {
			t.Fatalf("suggest after torn-tail restart: %v", err)
		}
		if err := lab2(restarted, lab.ID()).Answer(ctx, darwin.Answer{Key: sug.Key, Accept: true}); err != nil {
			t.Fatalf("answer after torn-tail restart: %v", err)
		}
	}

	waitCaughtUp(t, restarted.ctl, "directions")
	if _, err := follower.ctl.Promote(ctx, "directions", 2); err != nil {
		t.Fatalf("promote: %v", err)
	}
	want := export(t, restarted.sdk, lab.ID())
	got := export(t, follower.sdk, lab.ID())
	if !bytes.Equal(want, got) {
		t.Fatalf("transcript diverged after torn-tail crash + resync (%d vs %d bytes)", len(want), len(got))
	}
}

// lab2 reopens a labeler id against a restarted shard.
func lab2(sh *testShard, id string) *darwin.RemoteLabeler {
	return sh.sdk.OpenLabeler(id)
}
