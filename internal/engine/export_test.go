package engine

import "m3r/internal/wio"

// CombineSorted runs Combine's stable-sort path whatever the key type, so
// tests can hold the hash path against it.
func CombineSorted(rj *ResolvedJob, pairs []wio.Pair, ctx *TaskContext) ([]wio.Pair, error) {
	return combine(rj, pairs, ctx, false)
}

// HashGroups reports whether Combine hash-groups rj's buffers.
func HashGroups(rj *ResolvedJob) bool { return hashNormalizer(rj, 0) != nil }
