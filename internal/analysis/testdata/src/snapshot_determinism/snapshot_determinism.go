// Package snapfix exercises the determinism analyzer over the snapshot
// codec scope: it is loaded under the fake import path
// stashsim/internal/snapshot. Checkpoint bytes must be a pure function
// of simulator state, so iterating a map in encode order is the codec's
// cardinal sin — two runs of the same state would serialize different
// bytes and break checkpoint -> restore -> checkpoint identity.
package snapfix

import "sort"

type writer struct{ buf []byte }

func (w *writer) u64(v uint64) { w.buf = append(w.buf, byte(v)) }

// encodeTracked serializes a tracking map in map order: flagged.
func encodeTracked(w *writer, track map[uint64]int) {
	for id, n := range track { // want "range over map"
		w.u64(id)
		w.u64(uint64(n))
	}
}

// encodeTrackedSorted is the codec's required shape: collect keys, sort,
// then emit in deterministic order. The collection loop documents itself
// with the suppression the real codec uses — at its one such site,
// snapshot.Map.
func encodeTrackedSorted(w *writer, track map[uint64]int) {
	ids := make([]uint64, 0, len(track))
	//lint:allow determinism -- map-key collection, sorted before use
	for id := range track {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		w.u64(id)
		w.u64(uint64(track[id]))
	}
}
