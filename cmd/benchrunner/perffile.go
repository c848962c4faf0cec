package main

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
)

// PerfReport is BENCH_perf.json: each CI guard experiment (autolabel,
// scale) owns one section and carries the others through its rewrite.
type PerfReport struct {
	// Autolabel is the corpus-scale auto-labeling snapshot, owned by the
	// autolabel experiment (runAutolabel).
	Autolabel *AutolabelPerf `json:"autolabel,omitempty"`
	// ScaleSection is the million-sentence kernel snapshot, owned by the
	// scale experiment (runScale).
	ScaleSection *ScalePerf `json:"scale,omitempty"`
}

// readPerfReport loads the BENCH_perf.json at path.
func readPerfReport(path string) (PerfReport, error) {
	var rep PerfReport
	raw, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	return rep, json.Unmarshal(raw, &rep)
}

// updatePerfReport rewrites BENCH_perf.json at path with set applied to the
// report it holds (a zero report if the file is missing). Each experiment
// sets only its own section, and the file is written in PerfReport field
// order, so the sections the other experiments own come out byte-identical.
func updatePerfReport(path string, set func(*PerfReport)) error {
	rep, err := readPerfReport(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	set(&rep)
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
