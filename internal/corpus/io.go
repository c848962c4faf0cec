package corpus

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// jsonlRecord is the on-disk representation of one sentence in JSONL format.
type jsonlRecord struct {
	Text  string `json:"text"`
	Label int    `json:"label"`
}

// jsonlHeader is the first line of a corpus JSONL file, carrying corpus
// metadata.
type jsonlHeader struct {
	Corpus string `json:"corpus"`
	Task   string `json:"task"`
}

// WriteJSONL writes the corpus to w as JSON lines: a header line followed by
// one record per sentence.
func (c *Corpus) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(jsonlHeader{Corpus: c.Name, Task: c.Task}); err != nil {
		return fmt.Errorf("write corpus header: %w", err)
	}
	for _, s := range c.Sentences {
		rec := jsonlRecord{Text: s.Text, Label: int(s.Gold)}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("write sentence %d: %w", s.ID, err)
		}
	}
	return bw.Flush()
}

// SaveJSONL writes the corpus to the file at path, creating or truncating it.
func (c *Corpus) SaveJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	defer f.Close()
	if err := c.WriteJSONL(f); err != nil {
		return err
	}
	return f.Close()
}

// WriteLabeledJSONL writes the corpus to w as JSON lines labeled by the given
// positive set: one {"id","text","label"} record per sentence, label 1 iff
// the sentence ID is in positives. This is the export format of a discovery
// session — the weakly labeled training set the accepted rules produce —
// and the record shape of a labeling job without probabilities.
func (c *Corpus) WriteLabeledJSONL(w io.Writer, positives map[int]bool) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for _, s := range c.Sentences {
		label := 0
		if positives[s.ID] {
			label = 1
		}
		line = AppendRecordHead(line[:0], s.ID, s.Text)
		line, _ = AppendRecordTail(line, label, nil) // no probability, no error
		if _, err := bw.Write(line); err != nil {
			return fmt.Errorf("write sentence %d: %w", s.ID, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL reads a corpus written by WriteJSONL.
func ReadJSONL(r io.Reader) (*Corpus, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("read corpus header: %w", err)
		}
		return nil, fmt.Errorf("empty corpus file")
	}
	var hdr jsonlHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("parse corpus header: %w", err)
	}
	c := New(hdr.Corpus, hdr.Task)
	line := 1
	for sc.Scan() {
		line++
		var rec jsonlRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("parse line %d: %w", line, err)
		}
		c.Add(rec.Text, Label(rec.Label))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read corpus: %w", err)
	}
	return c, nil
}

// LoadJSONL reads a corpus from the file at path.
func LoadJSONL(path string) (*Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", path, err)
	}
	defer f.Close()
	return ReadJSONL(f)
}
