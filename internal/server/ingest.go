// Live-ingestion errors are served as the uniform darwin envelope.
//
//darwin:errenvelope
package server

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/pkg/darwin"
)

// This file is the /v2 live-ingestion surface: POST a JSONL batch of
// sentences into a served dataset's corpus. The batch is journaled durably
// before the response (an acknowledged batch survives a crash and replicates
// to the dataset's follower), and the engine extends its index incrementally
// — live labelers see the new sentences on their next suggestion without a
// rebuild. The generic handler sits over Backend like the rest of /v2, so
// the router serves the same route by forwarding to the dataset's primary.

// Ingestion telemetry: batch rate and size say how fast corpora grow, the
// latency histogram is the durability + indexing tax per batch, and the
// engine gauges track what the growth does to memory (corpus length per
// dataset, coverage-container mix across all engines).
var (
	ingestBatches = obs.Default().Counter("darwin_ingest_batches_total",
		"Sentence batches ingested into live corpora.")
	ingestSentences = obs.Default().Counter("darwin_ingest_sentences_total",
		"Sentences ingested into live corpora.")
	ingestDurations = obs.Default().Histogram("darwin_ingest_duration_seconds",
		"Latency of one ingest batch (validate + index + journal fsync).",
		obs.LatencyBuckets)
	corpusSentences = obs.Default().GaugeVec("darwin_engine_corpus_sentences",
		"Live corpus length by dataset.", "dataset")
	bitsetContainers = obs.Default().GaugeVec("darwin_bitset_containers",
		"Index per-node coverage containers by kind (array, bitmap), across all engines.",
		"kind")
)

// updateEngineGauges refreshes the corpus-length and coverage-container
// gauges from every served engine. Called at startup and after each ingest
// (the only times they change).
func (s *Server) updateEngineGauges() {
	arrays, bitmaps := 0, 0
	for name, d := range s.datasets {
		corpusSentences.With(name).Set(float64(d.Engine.CorpusLen()))
		a, b := d.Engine.ContainerStats()
		arrays += a
		bitmaps += b
	}
	bitsetContainers.With("array").Set(float64(arrays))
	bitsetContainers.With("bitmap").Set(float64(bitmaps))
}

// handleV2Ingest decodes the JSONL body and appends it through the Backend.
// The 200 is sent only after IngestSentences has journaled the batch.
//
//darwin:mutating-handler
func handleV2Ingest(b Backend) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		batch, err := ingest.DecodeJSONL(r.Body, ingest.Limits{})
		if err != nil {
			writeV2Error(w, fmt.Errorf("%w: %v", darwin.ErrInvalid, err))
			return
		}
		res, err := b.IngestSentences(r.Context(), r.PathValue("dataset"), batch)
		if err != nil {
			writeV2Error(w, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	}
}

// IngestSentences implements Backend: the batch goes through the workspace
// manager so the journal records it in apply order relative to every other
// durable event.
func (s *Server) IngestSentences(ctx context.Context, dataset string, batch []ingest.Sentence) (darwin.IngestResult, error) {
	if _, ok := s.datasets[dataset]; !ok {
		return darwin.IngestResult{}, fmt.Errorf("%w: unknown dataset %q (have %v)", darwin.ErrNotFound, dataset, s.DatasetNames())
	}
	if err := ingest.ValidateBatch(batch, ingest.Limits{}); err != nil {
		return darwin.IngestResult{}, fmt.Errorf("%w: %v", darwin.ErrInvalid, err)
	}
	start := time.Now()
	from, to, err := s.mgr.Ingest(dataset, batch)
	if err != nil {
		// On a journal failure (ErrUnavailable) the sentences may be applied
		// in memory but are not durable; the client must treat the batch as
		// unacknowledged.
		return darwin.IngestResult{}, darwin.MapWorkspaceErr(err)
	}
	ingestDurations.ObserveSince(start)
	ingestBatches.Inc()
	ingestSentences.Add(uint64(to - from))
	s.updateEngineGauges()
	return darwin.IngestResult{Dataset: dataset, From: from, Ingested: to - from, CorpusLen: to}, nil
}
