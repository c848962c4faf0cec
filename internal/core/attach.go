package core

import (
	"repro/internal/index"
)

// This file is the engine surface for drivers outside this package —
// multi-annotator workspaces (internal/workspace) — that hold their own
// Loop (see NewLoop and RestoreLoop) on the engine's shared corpus, index,
// embedding model and feature cache. A Loop takes the engine's locks
// itself; the hooks below let a driver read the index under the same read
// lock and observe seed-rule materializations, the one index mutation that
// must be journaled.

// WithIndexRead runs f with the shared index under the engine's read lock,
// the same lock Loop.View holds while generating hierarchies and scoring
// candidates. f must not retain the index or mutate it.
//
//darwin:lockrank-callback index
func (e *Engine) WithIndexRead(f func(ix *index.Index)) {
	e.ixMu.RLock()
	defer e.ixMu.RUnlock()
	f(e.ix)
}

// DefaultBudget returns the engine's configured oracle query budget.
func (e *Engine) DefaultBudget() int { return e.cfg.Budget }

// DefaultSeed returns the engine's configured random seed.
func (e *Engine) DefaultSeed() int64 { return e.cfg.Seed }

// SetMaterializeHook registers f to be called — under the engine's index
// write lock, in mutation order — with the rule specs of every seed-rule
// materialization (NewLoop and RestoreLoop seed rules, MaterializeRule). A
// journaling layer uses it to record index mutations in the exact order
// concurrent readers observed them, which is what makes replay
// deterministic: the hook and the hierarchy-generating read paths are
// serialized by the same lock. f must not call back into the engine. Pass
// nil to clear.
//
//darwin:lockrank-callback index
func (e *Engine) SetMaterializeHook(f func(specs []string)) {
	e.ixMu.Lock()
	e.matHook = f
	e.ixMu.Unlock()
}
