package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/pkg/darwin"
)

// listenRE finds the address a daemon bound ("darwind listening on
// 127.0.0.1:40123 ..."); daemons are started on port 0 so parallel runs
// never collide.
var listenRE = regexp.MustCompile(`listening on (\S+)`)

// proc is one daemon process started by the benchmark.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  *logSink
	addr string
	done chan struct{}
}

// logSink consumes a daemon's output: it reports the listen address once
// and keeps the last lines for error messages.
type logSink struct {
	mu   sync.Mutex
	part []byte
	tail []string
	addr chan string
	sent bool
}

func (s *logSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.part = append(s.part, p...)
	for {
		i := bytes.IndexByte(s.part, '\n')
		if i < 0 {
			break
		}
		line := string(s.part[:i])
		s.part = append(s.part[:0], s.part[i+1:]...)
		if !s.sent {
			if m := listenRE.FindStringSubmatch(line); m != nil {
				s.addr <- m[1]
				s.sent = true
			}
		}
		s.tail = append(s.tail, line)
		if len(s.tail) > 20 {
			s.tail = s.tail[1:]
		}
	}
	return len(p), nil
}

func (s *logSink) lines() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.tail, "\n")
}

// start launches one binary from the build directory. The process is killed
// if the benchmark dies without stopping it.
func (b *bench) start(name string, args ...string) (*proc, error) {
	sink := &logSink{addr: make(chan string, 1)}
	cmd := exec.Command(filepath.Join(b.bin, name), args...)
	cmd.Stdout = sink
	cmd.Stderr = sink
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: sink, done: make(chan struct{})}
	b.procsMu.Lock()
	b.procs = append(b.procs, p)
	b.procsMu.Unlock()
	go func() {
		_ = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// await blocks until the daemon reports its listen address.
func (p *proc) await() error {
	select {
	case p.addr = <-p.log.addr:
		return nil
	case <-p.done:
		return fmt.Errorf("%s exited before listening:\n%s", p.name, p.log.lines())
	case <-time.After(2 * time.Minute):
		return fmt.Errorf("%s did not start listening within 2m:\n%s", p.name, p.log.lines())
	}
}

func (p *proc) url() string { return "http://" + p.addr }

// stop kills the daemon and waits for it to exit. Nothing a daemon of the
// run writes outlives it (its directory is removed next), so a graceful
// shutdown would only add its drain time to the run.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Kill()
	<-p.done
}

// client is an SDK client for a daemon of the run.
func (b *bench) client(p *proc) *darwin.Client {
	return darwin.NewClient(p.url(), "", darwin.WithHTTPClient(b.hc))
}

// get fetches a URL the SDK has no call for (/metrics, /healthz, replication
// status) and returns the response body.
func (b *bench) get(url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(b.ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := b.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: read body: %w", url, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, nil
}

func (b *bench) getJSON(url string, out any) error {
	data, err := b.get(url)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("decode %.200s: %w", data, err)
	}
	return nil
}

// waitFor polls ok until it reports true or the timeout passes.
func waitFor(what string, timeout time.Duration, ok func() bool) error {
	deadline := time.Now().Add(timeout)
	for !ok() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// scrape is one /metrics read: sample value by series ("name{labels}").
type scrape map[string]float64

func (b *bench) scrape(p *proc) (scrape, error) {
	data, err := b.get(p.url() + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", p.name, err)
	}
	out := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

// scrapeAll reads /metrics from every daemon of a topology.
func (b *bench) scrapeAll(ps []*proc) ([]scrape, error) {
	out := make([]scrape, len(ps))
	for i, p := range ps {
		s, err := b.scrape(p)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// addGrowth adds the growth of every series between two scrapes of a
// topology, summed over its daemons.
func (d scrape) addGrowth(before, after []scrape) {
	for i := range after {
		for k, v := range after[i] {
			d[k] += v - before[i][k]
		}
	}
}

// sum adds the series of one metric whose labels contain every filter.
func (d scrape) sum(name string, filters ...string) float64 {
	total := 0.0
	for k, v := range d {
		base, labels, _ := strings.Cut(k, "{")
		if base != name {
			continue
		}
		match := true
		for _, f := range filters {
			if !strings.Contains(labels, f) {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// meanMillis is the mean observation of a seconds histogram over the
// window, in milliseconds (0 when nothing was observed).
func (d scrape) meanMillis(name string, filters ...string) float64 {
	n := d.sum(name+"_count", filters...)
	if n == 0 {
		return 0
	}
	return d.sum(name+"_sum", filters...) / n * 1000
}
