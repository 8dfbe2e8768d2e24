package core

// Memoization wiring. The step-result cache (internal/memo) is pure
// derived data: its keys and payloads are functions of the design history
// and the store's immutable versions, so it keeps no write-ahead log of
// its own. Recover and LoadSession rebuild it by re-keying every cleanly
// completed step of every restored thread — WarmMemo below — which makes
// "crash mid-populate" harmless by construction: an entry the crash lost
// is recomputed from the same history that produced it (docs/CACHING.md).

import (
	"fmt"

	"papyrus/internal/obs"
)

// WarmMemo rebuilds the memo cache from the activity manager's restored
// design history: every successfully completed step whose input and
// output versions are still materialized in the store is re-keyed and
// populated. Returns the number of entries added. A no-op without a
// configured cache.
func (s *System) WarmMemo() int {
	if s.Memo == nil {
		return 0
	}
	warmed := 0
	for _, t := range s.Activity.Threads() {
		for _, rec := range t.Stream().Records() {
			for _, step := range rec.Steps {
				if s.Memo.WarmStep(s.Store, step) {
					warmed++
				}
			}
		}
	}
	s.Metrics.Add("memo.warm", int64(warmed))
	if s.Trace != nil && warmed > 0 {
		s.Trace.Emit(obs.Event{
			VT: s.Cluster.Now(), Type: obs.EvMemoWarm,
			Args: map[string]string{"entries": fmt.Sprintf("%d", warmed)},
		})
	}
	return warmed
}
