// Labeling-job errors are served as the uniform darwin envelope.
//
//darwin:errenvelope
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/autolabel"
	"repro/pkg/darwin"
)

// This file is the /v2 labeling-job surface: the async autolabel subsystem
// behind POST /v2/datasets/{ds}/labeling-jobs and friends, plus the
// synchronous Snuba baseline endpoint. The generic handlers sit over Backend
// like the rest of /v2, so the router serves the same routes by forwarding
// job verbs to the dataset's primary shard.

// mapAutolabelErr translates the autolabel sentinel errors into the shared
// /v2 taxonomy so the job endpoints serve the uniform envelope.
func mapAutolabelErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, autolabel.ErrInvalidSpec):
		return fmt.Errorf("%w: %v", darwin.ErrInvalid, err)
	case errors.Is(err, autolabel.ErrUnknownDataset), errors.Is(err, autolabel.ErrUnknownJob):
		return fmt.Errorf("%w: %v", darwin.ErrNotFound, err)
	case errors.Is(err, autolabel.ErrNotDone):
		return fmt.Errorf("%w: %v", darwin.ErrConflict, err)
	case errors.Is(err, autolabel.ErrDisabled):
		return fmt.Errorf("%w: %v", darwin.ErrUnavailable, err)
	default:
		return err
	}
}

// --- generic /v2 job handlers (over any Backend) ---

// handleV2JobCreate acks 202 only after CreateLabelingJob has journaled the
// job-create record (an accepted job survives a crash).
//
//darwin:mutating-handler
func handleV2JobCreate(b Backend) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var spec autolabel.Spec
		if err := decodeBody(r, &spec); err != nil {
			writeV2Error(w, fmt.Errorf("%w: invalid JSON body: %v", darwin.ErrInvalid, err))
			return
		}
		st, err := b.CreateLabelingJob(r.Context(), r.PathValue("dataset"), spec)
		if err != nil {
			writeV2Error(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, st)
	}
}

func handleV2JobStatus(b Backend) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		st, err := b.LabelingJob(r.Context(), r.PathValue("dataset"), r.PathValue("id"))
		if err != nil {
			writeV2Error(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	}
}

func handleV2JobOutput(b Backend) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var offset int64
		if raw := r.URL.Query().Get("offset"); raw != "" {
			v, err := strconv.ParseInt(raw, 10, 64)
			if err != nil || v < 0 {
				writeV2Error(w, fmt.Errorf("%w: offset must be a non-negative integer, got %q", darwin.ErrInvalid, raw))
				return
			}
			offset = v
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		// Headers go out on the first body write, so a job that is unknown,
		// running, or failed is still served as the typed envelope; only a
		// mid-stream failure can truncate the body.
		cw := &countingResponseWriter{w: w}
		err := b.LabelingJobOutput(r.Context(), r.PathValue("dataset"), r.PathValue("id"), offset, cw)
		if err != nil && cw.n == 0 {
			writeV2Error(w, err)
		}
	}
}

func handleV2Snuba(b Backend) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req autolabel.SnubaRequest
		if err := decodeBody(r, &req); err != nil {
			writeV2Error(w, fmt.Errorf("%w: invalid JSON body: %v", darwin.ErrInvalid, err))
			return
		}
		res, err := b.SnubaBaseline(r.Context(), r.PathValue("dataset"), req)
		if err != nil {
			writeV2Error(w, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	}
}

// --- *Server as the local job Backend ---

// resolveJobSpec expands a labeler reference into that labeler's accepted
// rule strings, making the spec self-contained before it is journaled: the
// recorded job re-runs identically even if the labeler has since answered
// more questions or expired.
func (s *Server) resolveJobSpec(ctx context.Context, dataset string, spec autolabel.Spec) (autolabel.Spec, error) {
	if spec.Labeler == "" {
		return spec, nil
	}
	lab, err := s.Labeler(spec.Labeler)
	if err != nil {
		return spec, err
	}
	rep, err := lab.Report(ctx)
	if err != nil {
		return spec, err
	}
	if rep.Dataset != dataset {
		return spec, fmt.Errorf("%w: labeler %s serves dataset %q, not %q",
			darwin.ErrInvalid, spec.Labeler, rep.Dataset, dataset)
	}
	if len(rep.Accepted) == 0 && len(spec.Rules) == 0 && len(spec.NegativeRules) == 0 {
		return spec, fmt.Errorf("%w: labeler %s has no accepted rules yet", darwin.ErrInvalid, spec.Labeler)
	}
	// Accepted rule display strings are parseable rule specs (grammar
	// String() round-trips through Registry.Parse).
	for _, rec := range rep.Accepted {
		spec.Rules = append(spec.Rules, rec.Rule)
	}
	spec.Labeler = ""
	return spec, nil
}

// CreateLabelingJob implements Backend.
func (s *Server) CreateLabelingJob(ctx context.Context, dataset string, spec autolabel.Spec) (autolabel.JobStatus, error) {
	if _, ok := s.datasets[dataset]; !ok {
		return autolabel.JobStatus{}, fmt.Errorf("%w: unknown dataset %q (have %v)", darwin.ErrNotFound, dataset, s.DatasetNames())
	}
	if s.jobs == nil {
		return autolabel.JobStatus{}, fmt.Errorf("%w: labeling jobs are disabled (start darwind with -jobs-dir)", darwin.ErrUnavailable)
	}
	spec, err := s.resolveJobSpec(ctx, dataset, spec)
	if err != nil {
		return autolabel.JobStatus{}, err
	}
	st, err := s.jobs.Submit(dataset, spec)
	return st, mapAutolabelErr(err)
}

// LabelingJob implements Backend.
func (s *Server) LabelingJob(ctx context.Context, dataset, id string) (autolabel.JobStatus, error) {
	if s.jobs == nil {
		return autolabel.JobStatus{}, fmt.Errorf("%w: labeling jobs are disabled (start darwind with -jobs-dir)", darwin.ErrUnavailable)
	}
	st, err := s.jobs.Status(id)
	if err != nil {
		return autolabel.JobStatus{}, mapAutolabelErr(err)
	}
	if st.Dataset != dataset {
		return autolabel.JobStatus{}, fmt.Errorf("%w: job %q belongs to dataset %q", darwin.ErrNotFound, id, st.Dataset)
	}
	return st, nil
}

// LabelingJobOutput implements Backend.
func (s *Server) LabelingJobOutput(ctx context.Context, dataset, id string, offset int64, w io.Writer) error {
	if _, err := s.LabelingJob(ctx, dataset, id); err != nil {
		return err
	}
	rc, err := s.jobs.OpenOutput(id, offset)
	if err != nil {
		return mapAutolabelErr(err)
	}
	defer rc.Close()
	_, err = io.Copy(w, rc)
	return err
}

// SnubaBaseline implements Backend. The baseline is synchronous compute over
// the shared engine, so it is live even when labeling jobs are disabled.
func (s *Server) SnubaBaseline(ctx context.Context, dataset string, req autolabel.SnubaRequest) (autolabel.SnubaResult, error) {
	d, ok := s.datasets[dataset]
	if !ok {
		return autolabel.SnubaResult{}, fmt.Errorf("%w: unknown dataset %q (have %v)", darwin.ErrNotFound, dataset, s.DatasetNames())
	}
	res, err := autolabel.RunSnuba(d.Engine, req)
	if err != nil {
		return autolabel.SnubaResult{}, mapAutolabelErr(err)
	}
	res.Dataset = dataset
	return res, nil
}

// LabelingJobs exposes the job manager's full job list (diagnostics, tests).
func (s *Server) LabelingJobs() []autolabel.JobStatus {
	if s.jobs == nil {
		return nil
	}
	return s.jobs.Jobs()
}
