// Command perfbench measures what users of the Darwin labeling service wait
// for, on three workloads that each boot their own daemons from the
// checkout's sources:
//
//   - solo: one annotator drives solo sessions on one journaled darwind.
//   - routed: one annotator labels in workspaces through darwin-router over
//     two replicated shards while a client streams new sentences into the
//     dataset.
//   - jobs: a client runs batch labeling jobs on one darwind and downloads
//     each labeled corpus.
//
// Clients speak to the daemons through the repository's SDK, pkg/darwin. The
// simulated annotator answers each question as the paper's experiments do,
// from the gold labels of the sample sentences shown with the rule.
//
// It is started by run.sh, which builds the binaries first:
//
//	bash perfbench/run.sh --workload solo --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: whether every output
// checked out, how many operations were attempted and failed, and the
// metrics — end-to-end ones with --trace 0, per-layer ones with --trace 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
	"time"
)

// setupRounds is how many boots a run times, those serving the measured
// segments and extra ones spread evenly between them; setup_s is their
// median. A boot takes about a tenth of a second and the machine's speed
// drifts over a run, so many boots across the whole run make it steady.
const setupRounds = 24

type bench struct {
	// ctx is cancelled when the benchmark is interrupted.
	ctx      context.Context
	bin, dir string
	rng      *rand.Rand
	// offset is where the run starts in the seedRules cycle.
	offset int
	window time.Duration
	hc     *http.Client

	procsMu sync.Mutex
	procs   []*proc
}

// stopAll stops every daemon the run started.
func (b *bench) stopAll() {
	b.procsMu.Lock()
	ps := slices.Clone(b.procs)
	b.procsMu.Unlock()
	b.stop(ps)
}

// stop stops daemons and drops the client's connections to them.
func (b *bench) stop(ps []*proc) {
	for _, p := range ps {
		p.stop()
	}
	b.hc.CloseIdleConnections()
}

// outcome is what a workload measured. Its methods may be called from
// several client goroutines.
type outcome struct {
	mu sync.Mutex
	// ops are the measured operations that completed; background counts
	// the operations of clients that only add load.
	ops, background, failed int
	// waits are the per-operation waits in milliseconds, each completed in
	// segment seg of the window; the current segment is cur, started at start.
	waits []float64
	seg   []int
	cur   int
	start time.Time
	// setups are the boot times in seconds.
	setups []float64
	// spans are client-side call times by layer metric name, in ms.
	spans map[string][]float64
	// layers is the daemons' /metrics growth over the measured segments.
	layers scrape
	// problems lists every output that did not check out.
	problems []string
}

// done records one completed measured operation and how long it made its
// client wait.
func (o *outcome) done(wait time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.ops++
	o.waits = append(o.waits, ms(wait))
	o.seg = append(o.seg, o.cur)
}

// wait applies stat to the ascending waits of each segment and returns the
// median over segments.
func (o *outcome) wait(stat func(sorted []float64) float64) float64 {
	if len(o.waits) == 0 {
		return 0
	}
	parts := make([][]float64, slices.Max(o.seg)+1)
	for i, w := range o.waits {
		parts[o.seg[i]] = append(parts[o.seg[i]], w)
	}
	var qs []float64
	for _, p := range parts {
		if len(p) > 0 {
			slices.Sort(p)
			qs = append(qs, stat(p))
		}
	}
	slices.Sort(qs)
	return quantile(qs, 0.5)
}

// fail counts an operation that failed and reports why on standard error.
func (o *outcome) fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench: operation failed:", err)
	o.mu.Lock()
	defer o.mu.Unlock()
	o.failed++
}

func (o *outcome) span(name string, d time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.spans[name] = append(o.spans[name], ms(d))
}

func (o *outcome) problem(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: solo | routed | jobs")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics, 0 end-to-end metrics")
	bin := flag.String("bin", ".bench_build/bin", "directory holding darwind, darwin-router and datagen")
	work := flag.String("work", ".bench_build/run", "directory for journals and job outputs")
	flag.Parse()

	workloads := map[string]func(*bench) (*outcome, error){
		"solo":   (*bench).solo,
		"routed": (*bench).routed,
		"jobs":   (*bench).jobs,
	}
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 {
		fatalf("usage: perfbench --workload solo|routed|jobs --seed N --seconds S --trace 0|1")
	}
	dir, err := filepath.Abs(filepath.Join(*work, fmt.Sprintf("%s-%d", *workload, os.Getpid())))
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	// Stop the daemons on SIGINT/SIGTERM too, so none outlives the run.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	b := &bench{
		ctx:    ctx,
		bin:    *bin,
		dir:    dir,
		rng:    rand.New(rand.NewPCG(uint64(*seed), 0x9e3779b97f4a7c15)),
		offset: int(uint64(*seed) % uint64(len(seedRules))),
		window: time.Duration(*seconds * float64(time.Second)),
		hc: &http.Client{
			Timeout:   time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true},
		},
	}

	type ran struct {
		out *outcome
		err error
	}
	doneCh := make(chan ran, 1)
	go func() {
		out, err := run(b)
		doneCh <- ran{out, err}
	}()
	var r ran
	select {
	case r = <-doneCh:
	case <-ctx.Done():
		r.err = fmt.Errorf("interrupted")
	}
	cancel()
	b.stopAll()
	_ = os.RemoveAll(dir)
	if r.err != nil {
		fatalf("%s: %v", *workload, r.err)
	}
	res := report(r.out, *trace == 1)
	for _, p := range r.out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

// report turns an outcome into the result line.
func report(o *outcome, trace bool) result {
	res := result{
		Correct:   len(o.problems) == 0 && o.ops > 0,
		Attempted: o.ops + o.background + o.failed,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
	}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	if !trace {
		put("wait_mean_ms", "ms", o.wait(mean))
		put("wait_p95_ms", "ms", o.wait(func(s []float64) float64 { return quantile(s, 0.95) }))
		put("setup_s", "s", quantile(slices.Sorted(slices.Values(o.setups)), 0.5))
		return res
	}
	for _, name := range spanMetrics {
		put(name, "ms", quantile(slices.Sorted(slices.Values(o.spans[name])), 0.5))
	}
	d := o.layers
	for _, l := range histogramLayers {
		put(l.name, "ms", d.meanMillis(l.series, l.filters...))
	}
	perOp := func(n float64) float64 { return n / float64(max(o.ops, 1)) }
	for _, l := range perOpLayers {
		put(l.name, "1/op", perOp(d.sum(l.series, l.filters...)))
	}
	put("accepts_per_op", "1/op", perOp(float64(len(o.spans["answer_accept_ms"]))))
	put("ingest_batches", "count", d.sum("darwin_ingest_batches_total"))
	return res
}

// spanMetrics are timed by the benchmark around its own calls into the
// service (median per call).
var spanMetrics = []string{
	"suggest_call_ms", "answer_call_ms", "answer_accept_ms", "answer_reject_ms",
	"ingest_call_ms", "job_submit_ms", "job_run_ms", "job_output_ms",
}

type layerMetric struct {
	name, series string
	filters      []string
}

// The route labels of the question round trip's two calls.
const (
	suggestRoute = `route="GET /v2/labelers/{id}/suggestion"`
	answersRoute = `route="POST /v2/labelers/{id}/answers"`
)

// histogramLayers are the mean time per event of a layer, read from the
// daemons' /metrics histograms over the measured window.
var histogramLayers = []layerMetric{
	{"router_suggest_ms", "darwin_http_request_duration_seconds", []string{`daemon="darwin-router"`, suggestRoute}},
	{"router_answers_ms", "darwin_http_request_duration_seconds", []string{`daemon="darwin-router"`, answersRoute}},
	{"shard_suggest_ms", "darwin_http_request_duration_seconds", []string{`daemon="darwind"`, suggestRoute}},
	{"shard_answers_ms", "darwin_http_request_duration_seconds", []string{`daemon="darwind"`, answersRoute}},
	{"session_next_ms", "darwin_session_next_duration_seconds", nil},
	{"session_answer_ms", "darwin_session_answer_duration_seconds", nil},
	{"workspace_suggest_ms", "darwin_workspace_suggest_duration_seconds", nil},
	{"workspace_answer_ms", "darwin_workspace_answer_duration_seconds", nil},
	{"hier_regen_ms", "darwin_hierarchy_regen_duration_seconds", nil},
	{"classifier_fit_ms", "darwin_classifier_fit_duration_seconds", nil},
	{"journal_append_ms", "darwin_journal_append_duration_seconds", nil},
	{"journal_fsync_ms", "darwin_journal_fsync_duration_seconds", nil},
	{"repl_sync_wait_ms", "darwin_replication_sync_wait_seconds", nil},
	{"ingest_apply_ms", "darwin_ingest_duration_seconds", nil},
	{"autolabel_resolve_ms", "darwin_autolabel_stage_duration_seconds", []string{`stage="resolve"`}},
	{"autolabel_votes_ms", "darwin_autolabel_stage_duration_seconds", []string{`stage="votes"`}},
	{"autolabel_aggregate_ms", "darwin_autolabel_stage_duration_seconds", []string{`stage="aggregate"`}},
	{"autolabel_write_ms", "darwin_autolabel_stage_duration_seconds", []string{`stage="write"`}},
}

// perOpLayers count a layer's work over the measured window, per measured
// operation.
var perOpLayers = []layerMetric{
	{"hier_regens_per_op", "darwin_hierarchy_regens_total", nil},
	{"classifier_fits_per_op", "darwin_classifier_fits_total", nil},
	{"journal_fsyncs_per_op", "darwin_journal_fsyncs_total", nil},
	{"repl_events_per_op", "darwin_replication_shipped_events_total", nil},
}

func newOutcome() *outcome {
	return &outcome{spans: map[string][]float64{}, layers: scrape{}}
}

// run boots a topology setupRounds times, each in a fresh directory for its
// journals and job outputs, timing each boot until its daemons serve. The
// measured window is cut into equal segments; every setupRounds/segments-th
// boot serves the next segment and the boots between serve nothing. Wait
// statistics are taken per segment and the median over segments reported:
// the same daemon serves several percent faster or slower from one process
// to the next, and the machine slows down for seconds at a time, so one
// process or one stretch of time should not set the result. In each segment, clients run until the segment's deadline,
// between two /metrics scrapes of its daemons, and then check, if not nil,
// verifies what they left behind. Every topology is stopped and its
// directory removed before the next boots, so job outputs are deleted
// before the kernel writes them back to disk.
func (b *bench) run(o *outcome, segments int, boot func(dir string) ([]*proc, error),
	clients func(ps []*proc, deadline time.Time), check func(ps []*proc) error) error {
	for round := range setupRounds {
		dir := filepath.Join(b.dir, fmt.Sprintf("boot%d", round))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		start := time.Now()
		ps, err := boot(dir)
		if err != nil {
			return err
		}
		o.setups = append(o.setups, time.Since(start).Seconds())
		if per := setupRounds / segments; (round+1)%per == 0 {
			err = b.segment(o, round/per, b.window/time.Duration(segments), ps, clients, check)
		}
		b.stop(ps)
		if err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return nil
}

func (b *bench) segment(o *outcome, k int, span time.Duration, ps []*proc,
	clients func(ps []*proc, deadline time.Time), check func(ps []*proc) error) error {
	before, err := b.scrapeAll(ps)
	if err != nil {
		return err
	}
	o.cur, o.start = k, time.Now()
	clients(ps, o.start.Add(span))
	after, err := b.scrapeAll(ps)
	if err != nil {
		return err
	}
	o.layers.addGrowth(before, after)
	if check == nil {
		return nil
	}
	return check(ps)
}

// quantile returns the q-quantile of ascending values by linear
// interpolation (0 for none).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func mean(vs []float64) float64 {
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
