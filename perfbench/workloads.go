package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/pkg/darwin"
)

// The served corpus is the synthetic "directions" intent dataset, always
// generated with the same seed, and so are the sentences ingested into it:
// the service's data is fixed, while the run's seed drives what its clients
// do (seed rules, session seeds, job committees).
const (
	dataset     = "directions"
	corpusSeed  = "1"
	interactive = "0.5" // 7,650 sentences for annotators
	batch       = "1.0" // 15,300 sentences, the paper's size, for labeling jobs
	// questionsPerLabeler is how many questions a labeler gets before it is
	// closed and a fresh one started, so every run measures the same mix of
	// early and late questions whatever its length.
	questionsPerLabeler = 32
)

// acceptPrecision is the simulated annotator's verdict rule, the one the
// paper's experiments use (§4.1, Figure 2): accept a suggested rule when at
// least this share of the sample sentences shown with it are positive by the
// corpus's gold labels. The service decides which questions are asked, so
// the share of accepting answers, which cost far more than rejecting ones,
// is the system's own and not a setting of the benchmark.
const acceptPrecision = 0.8

// seedRules all have coverage in the served corpus.
var seedRules = []string{"best way to get to", "shuttle to", "bart", "which bus goes to"}

// jobRules are the rule pool labeling-job committees are drawn from.
var jobRules = []string{
	"best way to get to", "shuttle", "bart", "bus", "taxi", "train to",
	"fastest way", "how much is a", "directions to", "station",
}

// sentence is one corpus line as datagen writes it and ingest reads it.
type sentence struct {
	Text  string `json:"text"`
	Label int    `json:"label"`
}

// gold is what the annotator knows of the served corpus: every sentence's
// text and gold label by sentence id, growing as the benchmark ingests.
type gold struct {
	mu    sync.Mutex
	sents []sentence
}

// add appends sentences in the order the service assigns their ids and
// returns the id of the first.
func (g *gold) add(sents []sentence) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	from := len(g.sents)
	g.sents = append(g.sents, sents...)
	return from
}

// judge is the annotator's verdict on a suggestion by acceptPrecision over
// its samples. A sample whose text differs from the corpus sentence of its
// id is a problem: the service showed the annotator the wrong sentence.
func (g *gold) judge(o *outcome, sug darwin.Suggestion) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	pos := 0
	for _, s := range sug.Samples {
		if s.ID < 0 || s.ID >= len(g.sents) || g.sents[s.ID].Text != s.Text {
			o.problem("sample %d of %s is not the corpus sentence of that id", s.ID, sug.Key)
			return false
		}
		pos += g.sents[s.ID].Label
	}
	return len(sug.Samples) > 0 && float64(pos) >= acceptPrecision*float64(len(sug.Samples))
}

// generate writes a directions corpus with datagen and reads it back.
func (b *bench) generate(scale, seed string) ([]sentence, error) {
	path := filepath.Join(b.dir, "corpus-"+scale+"-"+seed+".jsonl")
	p, err := b.start("datagen", "-dataset", dataset, "-scale", scale, "-seed", seed, "-out", path)
	if err != nil {
		return nil, err
	}
	<-p.done
	if !p.cmd.ProcessState.Success() {
		return nil, fmt.Errorf("datagen failed:\n%s", p.log.lines())
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []sentence
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for first := true; sc.Scan(); first = false {
		if first {
			continue // corpus header
		}
		var s sentence
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("corpus line: %w", err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("datagen wrote no sentences")
	}
	return out, nil
}

// asArg converts v, through its JSON form, to the type of the argument an
// SDK call takes after its context and dataset. Some of those types live in
// internal packages of the repository's module, which this module may not
// name; their JSON form is the wire format, so the conversion is exact.
func asArg[A, R any](_ func(context.Context, string, A) (R, error), v any) (A, error) {
	var a A
	buf, err := json.Marshal(v)
	if err != nil {
		return a, err
	}
	return a, json.Unmarshal(buf, &a)
}

// turn is one answered question as the annotator saw it.
type turn struct {
	key    string
	accept bool
}

// ask shows the annotator the labeler's next suggestion and answers it. The
// wait it records is the round trip of both calls. It returns false when the
// labeler has no question left.
func (b *bench) ask(o *outcome, g *gold, lab *darwin.RemoteLabeler) (turn, bool, error) {
	t0 := time.Now()
	sug, err := lab.Suggest(b.ctx)
	if errors.Is(err, darwin.ErrBudgetExhausted) {
		return turn{}, false, nil
	}
	if err != nil {
		return turn{}, false, fmt.Errorf("suggestion: %w", err)
	}
	suggested := time.Since(t0)
	accept := g.judge(o, sug)
	t1 := time.Now()
	recs, err := lab.AnswerBatch(b.ctx, []darwin.Answer{{Key: sug.Key, Accept: accept}})
	if err != nil {
		return turn{}, false, fmt.Errorf("answer: %w", err)
	}
	answered := time.Since(t1)
	if len(recs) != 1 || recs[0].Key != sug.Key || recs[0].Accepted != accept {
		o.problem("answer to %s on %s was not applied as sent", sug.Key, lab.ID())
	}
	o.done(suggested + answered)
	o.span("suggest_call_ms", suggested)
	o.span("answer_call_ms", answered)
	if accept {
		o.span("answer_accept_ms", answered)
	} else {
		o.span("answer_reject_ms", answered)
	}
	return turn{key: sug.Key, accept: accept}, true, nil
}

// label creates a labeler, answers up to questionsPerLabeler of its
// questions until they or the window run out, and checks its report. It
// returns the labeler and the answered turns, with ok false when a call
// failed.
func (b *bench) label(o *outcome, g *gold, c *darwin.Client, opts darwin.CreateOptions, deadline time.Time, exact bool) (lab *darwin.RemoteLabeler, turns []turn, ok bool) {
	lab, err := c.NewLabeler(b.ctx, opts)
	if err != nil {
		o.fail(fmt.Errorf("create labeler: %w", err))
		return nil, nil, false
	}
	for len(turns) < questionsPerLabeler && time.Now().Before(deadline) {
		t, more, err := b.ask(o, g, lab)
		if err != nil {
			o.fail(err)
			break
		}
		if !more {
			break
		}
		turns = append(turns, t)
	}
	rep, err := lab.Report(b.ctx)
	if err != nil {
		o.fail(fmt.Errorf("report: %w", err))
		return lab, turns, false
	}
	checkReport(o, rep, turns, exact)
	return lab, turns, true
}

// closeLabeler deletes a labeler (for a workspace attachment: detaches).
func (b *bench) closeLabeler(o *outcome, lab *darwin.RemoteLabeler) {
	if err := lab.Close(b.ctx); err != nil {
		o.fail(fmt.Errorf("close labeler: %w", err))
	}
}

// checkReport checks a labeler's report against the questions its annotator
// answered: its history is those answers in order with their verdicts, and
// the positive set holds the coverage of every accepted rule (exactly that,
// when the corpus did not grow meanwhile).
func checkReport(o *outcome, rep darwin.Report, turns []turn, exact bool) {
	if rep.Questions != len(turns) || len(rep.History) != len(turns) {
		o.problem("report has %d questions, %d history records; %d were answered", rep.Questions, len(rep.History), len(turns))
		return
	}
	for i, h := range rep.History {
		if h.Key != turns[i].key || h.Accepted != turns[i].accept {
			o.problem("history record %d (%s) does not match the answer sent", i, h.Key)
			return
		}
	}
	if rep.Positives != len(rep.PositiveIDs) || !slices.IsSorted(rep.PositiveIDs) {
		o.problem("report positives %d do not match its sorted id list of %d", rep.Positives, len(rep.PositiveIDs))
		return
	}
	covered := map[int]bool{}
	for _, a := range rep.Accepted {
		for _, id := range a.CoverageIDs {
			covered[id] = true
		}
	}
	for id := range covered {
		if _, ok := slices.BinarySearch(rep.PositiveIDs, id); !ok {
			o.problem("accepted coverage id %d missing from the positive set", id)
			return
		}
	}
	if exact && len(covered) != len(rep.PositiveIDs) {
		o.problem("positive set has %d ids, accepted rules cover %d", len(rep.PositiveIDs), len(covered))
	}
}

// shardArgs are the darwind flags every workload shares.
func shardArgs(scale string, extra ...string) []string {
	return append([]string{
		"-addr", "127.0.0.1:0", "-datasets", dataset, "-scale", scale,
		"-seed", corpusSeed, "-budget", "1000000",
	}, extra...)
}

// seedRule cycles through seedRules from a seeded offset, so every run
// starts the same mix of labelers.
func (b *bench) seedRule(n int) []string {
	return []string{seedRules[(n+b.offset)%len(seedRules)]}
}

// solo: one annotator answers questions in solo sessions on one darwind
// that journals sessions, closing each session after questionsPerLabeler
// questions. A wait is one question round trip: fetch the suggestion, post
// the verdict.
func (b *bench) solo() (*outcome, error) {
	o := newOutcome()
	sents, err := b.generate(interactive, corpusSeed)
	if err != nil {
		return nil, err
	}
	g := &gold{sents: sents}
	type kept struct {
		lab   *darwin.RemoteLabeler
		opts  darwin.CreateOptions
		turns []turn
	}
	// first is the segment's first labeler, left open to be replayed.
	var first *kept
	n := 0
	err = b.run(o, 6, func(dir string) ([]*proc, error) {
		p, err := b.start("darwind", shardArgs(interactive,
			"-journal", filepath.Join(dir, "journal.jsonl"), "-journal-sessions")...)
		if err != nil {
			return nil, err
		}
		return []*proc{p}, p.await()
	}, func(ps []*proc, deadline time.Time) {
		c := b.client(ps[0])
		for ; time.Now().Before(deadline); n++ {
			opts := darwin.CreateOptions{
				Dataset:   dataset,
				SeedRules: b.seedRule(n),
				Seed:      1 + b.rng.Int64N(1<<30),
			}
			lab, turns, ok := b.label(o, g, c, opts, deadline, true)
			if ok && first == nil && len(turns) > 0 {
				first = &kept{lab: lab, opts: opts, turns: turns}
				continue
			}
			if lab != nil {
				b.closeLabeler(o, lab)
			}
		}
	}, func(ps []*proc) error {
		// Replaying the first session's verdicts into a fresh session with
		// the same options must reproduce its report exactly.
		if first == nil {
			return nil
		}
		k := first
		first = nil
		return b.checkReplay(o, b.client(ps[0]), k.lab, k.opts, k.turns)
	})
	if err != nil {
		return nil, err
	}
	return o, nil
}

func (b *bench) checkReplay(o *outcome, c *darwin.Client, orig *darwin.RemoteLabeler, opts darwin.CreateOptions, turns []turn) error {
	lab, err := c.NewLabeler(b.ctx, opts)
	if err != nil {
		return fmt.Errorf("replay create: %w", err)
	}
	ans := make([]darwin.Answer, len(turns))
	for i, t := range turns {
		ans[i] = darwin.Answer{Accept: t.accept}
	}
	if _, err := lab.AnswerBatch(b.ctx, ans); err != nil {
		return fmt.Errorf("replay answers: %w", err)
	}
	var reps [2][]byte
	for i, l := range []*darwin.RemoteLabeler{orig, lab} {
		rep, err := l.Report(b.ctx)
		if err != nil {
			return fmt.Errorf("replay report: %w", err)
		}
		if reps[i], err = json.Marshal(rep); err != nil {
			return err
		}
	}
	if !bytes.Equal(reps[0], reps[1]) {
		o.problem("replaying session %s's verdicts gave a different report", orig.ID())
	}
	return nil
}

// routed: an annotator labels in workspaces through darwin-router, which
// places the dataset on one of two journaled darwind shards and replicates
// it synchronously to the other; each workspace gets questionsPerLabeler
// questions, then the annotator detaches. Meanwhile a second client ingests
// a batch of ingestBatch new sentences every ingestEvery into the same
// dataset (open loop), so questions contend with live ingest. The rate is
// an assumption of the benchmark, a steady trickle of new text that grows
// the served corpus by about a percent every five seconds. Each segment of
// the window is served by a fleet booted for it.
func (b *bench) routed() (*outcome, error) {
	const (
		ingestBatch = 25
		ingestEvery = time.Second
	)
	o := newOutcome()
	sents, err := b.generate(interactive, corpusSeed)
	if err != nil {
		return nil, err
	}
	// A second, fixed directions corpus (datagen seed 2) is the text every
	// run ingests, so every run grows the served corpus the same way.
	pool, err := b.generate("0.1", "2")
	if err != nil {
		return nil, err
	}
	n := 0
	err = b.run(o, 6, b.bootFleet, func(ps []*proc, deadline time.Time) {
		// Each fleet serves the corpus as generated; only the benchmark's
		// ingests grow it.
		g := &gold{sents: sents}
		c := b.client(ps[2])
		stopIngest := make(chan struct{})
		ingestDone := make(chan struct{})
		go func() {
			defer close(ingestDone)
			b.ingestLoop(o, g, c, pool, ingestBatch, ingestEvery, stopIngest)
		}()

		for ; time.Now().Before(deadline); n++ {
			opts := darwin.CreateOptions{
				Dataset:   dataset,
				Mode:      darwin.ModeWorkspace,
				Annotator: "a0",
				SeedRules: b.seedRule(n),
				Seed:      1 + b.rng.Int64N(1<<30),
			}
			if lab, _, _ := b.label(o, g, c, opts, deadline, false); lab != nil {
				b.closeLabeler(o, lab)
			}
		}
		close(stopIngest)
		<-ingestDone
	}, nil)
	if err != nil {
		return nil, err
	}
	return o, nil
}

// bootFleet starts two journaled shards and a router managing replication
// between them, and returns once the dataset's primary streams to its
// follower. A detached workspace expires after a few idle seconds, so the
// shards' bound on live workspaces (256) never refuses the annotator's next
// one.
func (b *bench) bootFleet(dir string) ([]*proc, error) {
	var shards []*proc
	for _, name := range []string{"alpha", "beta"} {
		p, err := b.start("darwind", shardArgs(interactive,
			"-journal", filepath.Join(dir, name+".jsonl"), "-workspace-ttl", "3s")...)
		if err != nil {
			return nil, err
		}
		shards = append(shards, p)
	}
	for _, p := range shards {
		if err := p.await(); err != nil {
			return nil, err
		}
	}
	r, err := b.start("darwin-router", "-addr", "127.0.0.1:0",
		"-shards", "alpha="+shards[0].url()+",beta="+shards[1].url(),
		"-failover-threshold", "3", "-probe-every", "1s")
	if err != nil {
		return nil, err
	}
	ps := append(shards, r)
	if err := r.await(); err != nil {
		return ps, err
	}
	err = waitFor("replication of "+dataset, time.Minute, func() bool {
		var hz struct {
			Placements []struct {
				Dataset, Primary, Follower string
			} `json:"placements"`
		}
		if b.getJSON(r.url()+"/healthz", &hz) != nil {
			return false
		}
		for _, pl := range hz.Placements {
			if pl.Dataset != dataset || pl.Follower == "" {
				continue
			}
			primary := shards[0]
			if pl.Primary == "beta" {
				primary = shards[1]
			}
			var st struct {
				Datasets []struct {
					Dataset, Role, Follower string
				} `json:"datasets"`
			}
			if b.getJSON(primary.url()+"/v2/replication/status", &st) != nil {
				return false
			}
			for _, d := range st.Datasets {
				if d.Dataset == dataset && d.Role == "primary" && d.Follower != "" {
					return true
				}
			}
		}
		return false
	})
	return ps, err
}

// ingestLoop posts one batch from pool every period, on a fixed schedule
// from the segment's start, until stop closes; each call is timed from when
// it was due. The batch joins the annotator's gold corpus before it is
// sent, at the ids the service must assign it, since a suggestion may show
// the new sentences before the acknowledgement arrives. Each acknowledged
// batch must extend the corpus exactly there.
func (b *bench) ingestLoop(o *outcome, g *gold, c *darwin.Client, pool []sentence, batch int, period time.Duration, stop <-chan struct{}) {
	next := 0
	for i := 0; ; i++ {
		due := o.start.Add(time.Duration(i) * period)
		select {
		case <-stop:
			return
		case <-time.After(time.Until(due)):
		}
		sents := make([]sentence, batch)
		for k := range sents {
			sents[k] = pool[next%len(pool)]
			next++
		}
		arg, err := asArg(c.IngestSentences, sents)
		if err != nil {
			o.fail(fmt.Errorf("ingest batch: %w", err))
			continue
		}
		from := g.add(sents)
		res, err := c.IngestSentences(b.ctx, dataset, arg)
		took := time.Since(due)
		if err != nil {
			o.fail(fmt.Errorf("ingest: %w", err))
			continue
		}
		if res.From != from || res.Ingested != batch || res.CorpusLen != from+batch {
			o.problem("ingest batch acknowledged as %+v, expected to start at %d", res, from)
		}
		o.span("ingest_call_ms", took)
		o.mu.Lock()
		o.background++
		o.mu.Unlock()
	}
}

// jobs: one client runs labeling jobs back to back on one darwind: submit a
// committee of rules with generative aggregation, poll until the job is
// done, download the labeled corpus. A wait is submit to last byte. Each
// run cycles through eight committees of five rules, cut from four seeded
// shuffles of jobRules so that every rule sits on four committees whatever
// the seed; every output must label the whole corpus and be byte-identical
// to the earlier output of its committee, even one served by the daemon of
// another segment.
func (b *bench) jobs() (*outcome, error) {
	const committees, size = 8, 5
	o := newOutcome()
	var specs []map[string]any
	for len(specs) < committees {
		perm := b.rng.Perm(len(jobRules))
		for i := 0; i+size <= len(perm); i += size {
			var rules []string
			for _, r := range perm[i : i+size] {
				rules = append(rules, jobRules[r])
			}
			specs = append(specs, map[string]any{"rules": rules, "aggregator": "generative", "include_prob": true})
		}
	}
	digests := make([][32]byte, committees)
	n := 0
	err := b.run(o, 6, func(dir string) ([]*proc, error) {
		p, err := b.start("darwind", shardArgs(batch,
			"-jobs-dir", filepath.Join(dir, "jobs"), "-job-ttl", "2s")...)
		if err != nil {
			return nil, err
		}
		return []*proc{p}, p.await()
	}, func(ps []*proc, deadline time.Time) {
		c := b.client(ps[0])
		for ; time.Now().Before(deadline); n++ {
			k := n % committees
			spec, err := asArg(c.CreateLabelingJob, specs[k])
			if err != nil {
				o.fail(fmt.Errorf("job spec: %w", err))
				continue
			}
			t0 := time.Now()
			st, err := c.CreateLabelingJob(b.ctx, dataset, spec)
			t1 := time.Now()
			// Poll the way a client waiting on a short job would: soon
			// after submitting, then backing off, so that the polls do not
			// load the daemon much while it runs the job.
			for poll := time.Millisecond; err == nil && st.State != "done" && st.State != "failed"; poll = min(2*poll, 4*time.Millisecond) {
				time.Sleep(poll)
				st, err = c.LabelingJob(b.ctx, dataset, st.ID)
			}
			if err == nil && st.State != "done" {
				err = fmt.Errorf("job %s ended %s", st.ID, st.State)
			}
			if err != nil {
				o.fail(err)
				continue
			}
			t2 := time.Now()
			var out bytes.Buffer
			if err := c.LabelingJobOutput(b.ctx, dataset, st.ID, 0, &out); err != nil {
				o.fail(fmt.Errorf("job output: %w", err))
				continue
			}
			t3 := time.Now()
			o.done(t3.Sub(t0))
			o.span("job_submit_ms", t1.Sub(t0))
			o.span("job_run_ms", t2.Sub(t1))
			o.span("job_output_ms", t3.Sub(t2))

			sum := sha256.Sum256(out.Bytes())
			switch {
			case int64(out.Len()) != st.OutputBytes:
				o.problem("job %s output has %d bytes, status says %d", st.ID, out.Len(), st.OutputBytes)
			case digests[k] == [32]byte{}:
				checkJobOutput(o, out.Bytes(), st.Sentences, st.Positives)
				digests[k] = sum
			case sum != digests[k]:
				o.problem("job %s output differs from the earlier run of the same committee", st.ID)
			}
		}
	}, nil)
	if err != nil {
		return nil, err
	}
	return o, nil
}

// checkJobOutput checks a labeled corpus: one record per sentence in id
// order, binary labels, as many positives as the job reported.
func checkJobOutput(o *outcome, out []byte, sentences, positives int) {
	n, pos := 0, 0
	for line := range bytes.Lines(out) {
		var rec struct {
			ID    int      `json:"id"`
			Label int      `json:"label"`
			Prob  *float64 `json:"prob"`
		}
		if err := json.Unmarshal(line, &rec); err != nil || rec.ID != n || rec.Label > 1 || rec.Prob == nil {
			o.problem("labeled record %d is malformed: %.120s", n, line)
			return
		}
		n++
		pos += rec.Label
	}
	if n != sentences || pos != positives {
		o.problem("labeled corpus has %d records / %d positives, job reported %d / %d", n, pos, sentences, positives)
	}
}
