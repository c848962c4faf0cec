package autolabel

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Job-subsystem telemetry: fleet dashboards watch queue depth and failure
// rate here, and the per-stage histograms attribute a slow job to rule
// resolution versus EM versus output I/O.
var (
	jobsByState = obs.Default().GaugeVec("darwin_autolabel_jobs",
		"Labeling jobs currently tracked by the manager, by state.",
		"state")
	jobsCompleted = obs.Default().CounterVec("darwin_autolabel_jobs_completed_total",
		"Labeling jobs that reached a terminal state, by result (done, failed, canceled).",
		"result")
	sentencesLabeled = obs.Default().Counter("darwin_autolabel_sentences_labeled_total",
		"Sentences written to labeling-job outputs.")
	stageDurations = obs.Default().HistogramVec("darwin_autolabel_stage_duration_seconds",
		"Latency of labeling-job pipeline stages.",
		obs.LatencyBuckets, "stage")
)

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// JobStatus is the wire status of a labeling job — the body of
// GET /v2/datasets/{ds}/labeling-jobs/{id} and of the create response.
type JobStatus struct {
	ID      string `json:"id"`
	Dataset string `json:"dataset"`
	State   string `json:"state"`
	// Stage is the pipeline stage a running job is in.
	Stage string `json:"stage,omitempty"`
	// Rules / Sentences are committee and corpus sizes; SentencesLabeled is
	// the write-stage progress counter (== Sentences when done).
	Rules            int `json:"rules"`
	Sentences        int `json:"sentences,omitempty"`
	SentencesLabeled int `json:"sentences_labeled"`
	// Covered / Positives / OutputBytes are filled when the job is done.
	Covered     int    `json:"covered,omitempty"`
	Positives   int    `json:"positives,omitempty"`
	OutputBytes int64  `json:"output_bytes,omitempty"`
	Error       string `json:"error,omitempty"`
	// Spec is the resolved spec the job runs (self-contained: any labeler
	// reference was expanded into rule strings before submission).
	Spec Spec `json:"spec"`
}

// ManagerConfig configures a labeling-job Manager.
type ManagerConfig struct {
	// Dir holds the job journal (jobs.log) and per-job outputs
	// (<id>.jsonl). Required.
	Dir string
	// Workers bounds concurrent job execution (default 2).
	Workers int
	// TTL is how long terminal jobs and their outputs are retained
	// (default 1h). Expired jobs are swept lazily on Submit/Status calls.
	TTL time.Duration
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

// jobRecord is one line of the jobs journal. "create" records the resolved
// spec; "done"/"failed" mark terminal states; "expire" records a TTL sweep
// that deleted the job and its output, so replay does not resurrect it. A
// create without a terminal record is an interrupted job: reopening the
// manager re-enqueues it, and because Run is deterministic the re-run
// reproduces the exact output the crashed run would have produced.
type jobRecord struct {
	Type    string  `json:"type"` // create | done | failed | expire
	ID      string  `json:"id"`
	Dataset string  `json:"dataset,omitempty"`
	Spec    *Spec   `json:"spec,omitempty"`
	Result  *Result `json:"result,omitempty"`
	Error   string  `json:"error,omitempty"`
	// Unix is the wall-clock seconds of the record, used only for TTL
	// expiry of terminal jobs (never for output content).
	Unix int64 `json:"unix,omitempty"`
}

// job is the manager's in-memory view of one labeling job.
type job struct {
	id      string
	dataset string
	spec    Spec

	mu         sync.Mutex
	state      string
	stage      string
	rules      int
	n          int // corpus size, known once running
	labeled    int // write-stage progress
	result     Result
	err        error
	createUnix int64
	doneUnix   int64

	done chan struct{}
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:               j.id,
		Dataset:          j.dataset,
		State:            j.state,
		Stage:            j.stage,
		Rules:            len(j.spec.Rules) + len(j.spec.NegativeRules),
		Sentences:        j.n,
		SentencesLabeled: j.labeled,
		Spec:             j.spec,
	}
	if j.state == StateDone {
		st.Covered = j.result.Covered
		st.Positives = j.result.Positives
		st.OutputBytes = j.result.OutputBytes
		st.Sentences = j.result.Sentences
		st.SentencesLabeled = j.result.Sentences
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// Manager runs labeling jobs against a fixed set of engines with bounded
// worker concurrency, a TTL'd job store, and a journal that makes job status
// and outputs survive a crash: on reopen, terminal jobs are restored from
// their records and interrupted jobs are re-enqueued (deterministic Run makes
// the re-run byte-identical to what the lost run would have written).
type Manager struct {
	cfg     ManagerConfig
	engines func(dataset string) (*core.Engine, bool)

	mu      sync.Mutex //darwin:lockrank job
	jobs    map[string]*job
	journal *os.File
	jw      *bufio.Writer
	closed  bool

	queue  chan *job
	wg     sync.WaitGroup
	ctx    context.Context
	cancel context.CancelFunc

	// now is the wall clock, swappable in tests for TTL expiry.
	now func() time.Time
}

// NewManager opens (or creates) the job store in cfg.Dir, replays the job
// journal, restores terminal job statuses, and re-enqueues interrupted jobs.
// The engines resolver maps a dataset name to its engine; jobs for datasets
// the resolver no longer knows are dropped on replay.
func NewManager(cfg ManagerConfig, engines func(dataset string) (*core.Engine, bool)) (*Manager, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("autolabel: manager requires a directory")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.TTL <= 0 {
		cfg.TTL = time.Hour
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("autolabel: create jobs dir: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:     cfg,
		engines: engines,
		jobs:    make(map[string]*job),
		queue:   make(chan *job, 128),
		ctx:     ctx,
		cancel:  cancel,
		now:     time.Now,
	}
	pending, order, err := m.replay()
	if err != nil {
		cancel()
		return nil, err
	}
	if err := m.compactJournal(order); err != nil {
		cancel()
		return nil, err
	}
	f, err := os.OpenFile(m.journalPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("autolabel: open job journal: %w", err)
	}
	m.journal = f
	m.jw = bufio.NewWriter(f)
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	// Re-enqueue interrupted jobs in journal order so recovery is
	// deterministic.
	for _, j := range pending {
		m.cfg.Logf("autolabel: re-enqueueing interrupted job %s (dataset %s)", j.id, j.dataset)
		m.queue <- j
	}
	m.updateStateGauges()
	return m, nil
}

func (m *Manager) journalPath() string { return filepath.Join(m.cfg.Dir, "jobs.log") }

// OutputPath returns where the job's finished output lives.
func (m *Manager) OutputPath(id string) string {
	return filepath.Join(m.cfg.Dir, id+".jsonl")
}

// replay reads the journal and rebuilds the job table. It returns the jobs
// that must re-run — creates without a terminal record, plus unexpired done
// jobs whose output file has gone missing — and the journal order of the
// surviving jobs (for deterministic re-enqueueing and compaction). A torn
// final line (crash mid-append) is tolerated and dropped, as are duplicate
// terminal records for an id already in a terminal state (a rebuilt output
// appends a second "done" for the same job). An unparsable line followed by
// any other line is corruption, not a crash: replay fails naming the file
// and line, so NewManager never compacts acknowledged jobs away.
func (m *Manager) replay() (pending []*job, order []string, err error) {
	f, err := os.Open(m.journalPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("autolabel: open job journal: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	terminal := func(j *job) bool { return j.state == StateDone || j.state == StateFailed }
	line, badLine := 0, 0
	var badErr error
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		if badLine > 0 {
			return nil, nil, fmt.Errorf("autolabel: job journal %s line %d: %v", m.journalPath(), badLine, badErr)
		}
		var rec jobRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			// A torn tail from a crash mid-append, unless a line follows.
			badLine, badErr = line, err
			continue
		}
		switch rec.Type {
		case "create":
			if rec.Spec == nil {
				continue
			}
			j := &job{
				id:         rec.ID,
				dataset:    rec.Dataset,
				spec:       *rec.Spec,
				state:      StateQueued,
				createUnix: rec.Unix,
				done:       make(chan struct{}),
			}
			m.jobs[rec.ID] = j
			order = append(order, rec.ID)
		case "done":
			if j, ok := m.jobs[rec.ID]; ok && rec.Result != nil && !terminal(j) {
				j.state = StateDone
				j.result = *rec.Result
				j.n = rec.Result.Sentences
				j.labeled = rec.Result.Sentences
				j.doneUnix = rec.Unix
				close(j.done)
			}
		case "failed":
			if j, ok := m.jobs[rec.ID]; ok && !terminal(j) {
				j.state = StateFailed
				j.err = errors.New(rec.Error)
				j.doneUnix = rec.Unix
				close(j.done)
			}
		case "expire":
			// TTL sweep deleted the job and its output; do not resurrect.
			delete(m.jobs, rec.ID)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("autolabel: read job journal: %w", err)
	}
	cutoff := m.now().Add(-m.cfg.TTL).Unix()
	kept := order[:0]
	for _, id := range order {
		j, ok := m.jobs[id]
		if !ok {
			continue // expired
		}
		if _, ok := m.engines(j.dataset); !ok {
			m.cfg.Logf("autolabel: dropping job %s for unknown dataset %s", id, j.dataset)
			delete(m.jobs, id)
			continue
		}
		switch j.state {
		case StateQueued:
			pending = append(pending, j)
		case StateDone:
			if _, err := os.Stat(m.OutputPath(id)); err != nil {
				if j.doneUnix > 0 && j.doneUnix < cutoff {
					// Past the TTL anyway (e.g. a sweep whose expire record
					// was lost): drop instead of re-running work only a
					// sweep would immediately delete.
					m.cfg.Logf("autolabel: dropping expired job %s with missing output", id)
					delete(m.jobs, id)
					continue
				}
				// Output lost (crash between rename and journal sync, or
				// manual deletion): determinism lets us rebuild it.
				m.cfg.Logf("autolabel: output of done job %s missing, re-running", id)
				j.state = StateQueued
				j.done = make(chan struct{})
				pending = append(pending, j)
			}
		}
		kept = append(kept, id)
	}
	return pending, kept, nil
}

// compactJournal rewrites jobs.log down to the minimal record set for the
// jobs that survived replay — one create per job plus at most one terminal
// record — dropping expire records, duplicate terminal records, and records
// of expired or unknown-dataset jobs. Called on every open (before the
// append handle exists), it bounds journal growth across restarts.
func (m *Manager) compactJournal(order []string) error {
	if _, err := os.Stat(m.journalPath()); errors.Is(err, os.ErrNotExist) {
		return nil
	}
	tmp := m.journalPath() + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("autolabel: compact job journal: %w", err)
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("autolabel: compact job journal: %w", err)
	}
	w := bufio.NewWriter(f)
	for _, id := range order {
		j, ok := m.jobs[id]
		if !ok {
			continue
		}
		recs := []jobRecord{{Type: "create", ID: j.id, Dataset: j.dataset, Spec: &j.spec, Unix: j.createUnix}}
		switch j.state {
		case StateDone:
			res := j.result
			recs = append(recs, jobRecord{Type: "done", ID: j.id, Result: &res, Unix: j.doneUnix})
		case StateFailed:
			recs = append(recs, jobRecord{Type: "failed", ID: j.id, Error: j.err.Error(), Unix: j.doneUnix})
		}
		for _, rec := range recs {
			line, err := json.Marshal(rec)
			if err != nil {
				return fail(err)
			}
			if _, err := w.Write(append(line, '\n')); err != nil {
				return fail(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("autolabel: compact job journal: %w", err)
	}
	if err := os.Rename(tmp, m.journalPath()); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("autolabel: compact job journal: %w", err)
	}
	return nil
}

// appendRecord durably journals one job record: the line is written,
// flushed, and fsynced before appendRecord returns.
//
//darwin:journals
func (m *Manager) appendRecord(rec jobRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrDisabled
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if _, err := m.jw.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("autolabel: append job record: %w", err)
	}
	if err := m.jw.Flush(); err != nil {
		return fmt.Errorf("autolabel: flush job journal: %w", err)
	}
	return m.journal.Sync()
}

func (m *Manager) updateStateGauges() {
	counts := map[string]int{StateQueued: 0, StateRunning: 0, StateDone: 0, StateFailed: 0}
	m.mu.Lock()
	for _, j := range m.jobs {
		j.mu.Lock()
		counts[j.state]++
		j.mu.Unlock()
	}
	m.mu.Unlock()
	for state, n := range counts {
		jobsByState.With(state).Set(float64(n))
	}
}

// newJobID returns a fresh random job id ("j" + 16 hex chars).
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err)
	}
	return "j" + hex.EncodeToString(b[:])
}

// Submit validates the spec, journals the job and enqueues it. The spec must
// be fully resolved (no labeler reference). The returned status is the
// queued-state snapshot carrying the job id.
func (m *Manager) Submit(dataset string, spec Spec) (JobStatus, error) {
	eng, ok := m.engines(dataset)
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: %q", ErrUnknownDataset, dataset)
	}
	if err := spec.Validate(eng); err != nil {
		return JobStatus{}, err
	}
	m.sweep()
	j := &job{
		id:         newJobID(),
		dataset:    dataset,
		spec:       spec,
		state:      StateQueued,
		createUnix: m.now().Unix(),
		done:       make(chan struct{}),
	}
	if err := m.appendRecord(jobRecord{Type: "create", ID: j.id, Dataset: dataset, Spec: &spec, Unix: j.createUnix}); err != nil {
		return JobStatus{}, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return JobStatus{}, ErrDisabled
	}
	m.jobs[j.id] = j
	m.mu.Unlock()
	select {
	case m.queue <- j:
	default:
		// Queue full: run the enqueue blocking in a goroutine so Submit
		// stays non-blocking; Close drains via context cancellation.
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			select {
			case m.queue <- j:
			case <-m.ctx.Done():
			}
		}()
	}
	m.updateStateGauges()
	return j.status(), nil
}

// Status returns the job's current status.
func (m *Manager) Status(id string) (JobStatus, error) {
	m.sweep()
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j.status(), nil
}

// Wait blocks until the job reaches a terminal state or ctx is done, then
// returns its status. A manager shutdown also unblocks Wait, returning the
// job's current (possibly non-terminal) status instead of hanging on a job
// that will never finish in this process.
func (m *Manager) Wait(ctx context.Context, id string) (JobStatus, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	select {
	case <-j.done:
		return j.status(), nil
	case <-m.ctx.Done():
		return j.status(), nil
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
}

// OpenOutput opens the finished output of a done job for streaming, seeking
// to offset bytes (for resumable downloads). The caller must close the
// reader. Returns ErrNotDone while the job is queued/running and the job's
// failure error if it failed.
func (m *Manager) OpenOutput(id string, offset int64) (io.ReadCloser, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	j.mu.Lock()
	state, jerr := j.state, j.err
	j.mu.Unlock()
	switch state {
	case StateFailed:
		return nil, fmt.Errorf("%w: job %s failed: %v", ErrNotDone, id, jerr)
	case StateDone:
	default:
		return nil, fmt.Errorf("%w: job %s is %s", ErrNotDone, id, state)
	}
	f, err := os.Open(m.OutputPath(id))
	if err != nil {
		return nil, fmt.Errorf("autolabel: open output of %s: %w", id, err)
	}
	if offset > 0 {
		if _, err := f.Seek(offset, io.SeekStart); err != nil {
			f.Close()
			return nil, fmt.Errorf("autolabel: seek output of %s: %w", id, err)
		}
	}
	return f, nil
}

// Jobs lists statuses of all tracked jobs, newest unexpired first by id (ids
// are random; ordering is lexicographic for determinism, not by time).
func (m *Manager) Jobs() []JobStatus {
	m.mu.Lock()
	ids := make([]string, 0, len(m.jobs))
	for id := range m.jobs {
		ids = append(ids, id)
	}
	m.mu.Unlock()
	sort.Strings(ids)
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		m.mu.Lock()
		j, ok := m.jobs[id]
		m.mu.Unlock()
		if ok {
			out = append(out, j.status())
		}
	}
	return out
}

// sweep drops terminal jobs older than the TTL, deletes their outputs, and
// journals an "expire" record per job so replay does not resurrect them.
func (m *Manager) sweep() {
	cutoff := m.now().Add(-m.cfg.TTL).Unix()
	var expired []string
	m.mu.Lock()
	for id, j := range m.jobs {
		j.mu.Lock()
		terminal := j.state == StateDone || j.state == StateFailed
		old := j.doneUnix > 0 && j.doneUnix < cutoff
		j.mu.Unlock()
		if terminal && old {
			expired = append(expired, id)
			delete(m.jobs, id)
		}
	}
	m.mu.Unlock()
	for _, id := range expired {
		os.Remove(m.OutputPath(id))
		if err := m.appendRecord(jobRecord{Type: "expire", ID: id, Unix: m.now().Unix()}); err != nil {
			m.cfg.Logf("autolabel: journal expiry of %s: %v", id, err)
		}
		m.cfg.Logf("autolabel: expired job %s", id)
	}
	if len(expired) > 0 {
		m.updateStateGauges()
	}
}

// worker executes jobs from the queue until the manager closes.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.ctx.Done():
			return
		case j := <-m.queue:
			m.run(j)
		}
	}
}

// run executes one job: stream the pipeline into <id>.jsonl.partial, rename
// to <id>.jsonl, then journal the terminal record. The rename-then-journal
// order means a "done" record always refers to a complete output file; a
// crash in between leaves a create-without-terminal record, and recovery
// re-runs the job to the identical bytes.
func (m *Manager) run(j *job) {
	eng, ok := m.engines(j.dataset)
	if !ok {
		m.finishFailed(j, fmt.Errorf("%w: %q", ErrUnknownDataset, j.dataset))
		return
	}
	if j.spec.Corpus != "" {
		// Uploaded corpus: label the spec's own sentences through a
		// streaming engine (same grammars/kernel/seed as the dataset, no
		// interactive index). Built fresh per run — it is a pure function
		// of the journaled spec, so recovery re-runs reproduce the bytes.
		batch, err := j.spec.DecodeCorpus()
		if err != nil {
			m.finishFailed(j, err)
			return
		}
		seng, err := core.NewStreamingFromBatch(j.dataset+"/upload", batch, eng.Config())
		if err != nil {
			m.finishFailed(j, fmt.Errorf("%w: %v", ErrInvalidSpec, err))
			return
		}
		eng = seng
	}
	j.mu.Lock()
	j.state = StateRunning
	j.stage = StageResolve
	j.n = eng.CorpusLen()
	j.mu.Unlock()
	m.updateStateGauges()

	partial := m.OutputPath(j.id) + ".partial"
	f, err := os.Create(partial)
	if err != nil {
		m.finishFailed(j, fmt.Errorf("autolabel: create output: %w", err))
		return
	}
	stageStart := time.Now()
	lastStage := StageResolve
	prevLabeled := 0
	progress := func(stage string, done, total int) {
		if stage != lastStage {
			stageDurations.With(lastStage).ObserveSince(stageStart)
			stageStart = time.Now()
			lastStage = stage
		}
		j.mu.Lock()
		j.stage = stage
		if stage == StageWrite {
			j.labeled = done
		}
		j.mu.Unlock()
		if stage == StageWrite {
			sentencesLabeled.Add(uint64(done - prevLabeled))
			prevLabeled = done
		}
	}
	res, err := Run(m.ctx, eng, j.spec, f, progress)
	stageDurations.With(lastStage).ObserveSince(stageStart)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("autolabel: close output: %w", cerr)
	}
	if err != nil {
		os.Remove(partial)
		if m.ctx.Err() != nil {
			// Manager shutdown: leave the journal without a terminal record
			// so the next open re-runs the job, but close j.done (back in
			// the queued state) so in-process waiters unblock.
			m.cfg.Logf("autolabel: job %s interrupted by shutdown", j.id)
			j.mu.Lock()
			j.state = StateQueued
			j.stage = ""
			j.mu.Unlock()
			close(j.done)
			return
		}
		m.finishFailed(j, err)
		return
	}
	if err := os.Rename(partial, m.OutputPath(j.id)); err != nil {
		m.finishFailed(j, fmt.Errorf("autolabel: publish output: %w", err))
		return
	}
	now := m.now().Unix()
	j.mu.Lock()
	j.state = StateDone
	j.stage = ""
	j.result = res
	j.labeled = res.Sentences
	j.doneUnix = now
	j.mu.Unlock()
	close(j.done)
	if err := m.appendRecord(jobRecord{Type: "done", ID: j.id, Result: &res, Unix: now}); err != nil {
		m.cfg.Logf("autolabel: journal done record for %s: %v", j.id, err)
	}
	jobsCompleted.With("done").Inc()
	m.updateStateGauges()
}

func (m *Manager) finishFailed(j *job, err error) {
	now := m.now().Unix()
	j.mu.Lock()
	j.state = StateFailed
	j.stage = ""
	j.err = err
	j.doneUnix = now
	j.mu.Unlock()
	close(j.done)
	if jerr := m.appendRecord(jobRecord{Type: "failed", ID: j.id, Error: err.Error(), Unix: now}); jerr != nil {
		m.cfg.Logf("autolabel: journal failure record for %s: %v", j.id, jerr)
	}
	jobsCompleted.With("failed").Inc()
	m.cfg.Logf("autolabel: job %s failed: %v", j.id, err)
	m.updateStateGauges()
}

// Close stops the workers (canceling any running job without journaling a
// terminal record, so it re-runs on reopen) and closes the journal.
func (m *Manager) Close() error {
	m.cancel()
	m.wg.Wait()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	if err := m.jw.Flush(); err != nil {
		m.journal.Close()
		return err
	}
	return m.journal.Close()
}
