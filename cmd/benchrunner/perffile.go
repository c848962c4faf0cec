package main

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
)

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
