package core

import "unsafe"

// cacheLine is the false-sharing granularity the worker accumulators are
// aligned to.
// 64 bytes covers x86-64 and most arm64 parts; on 128-byte-line hardware the
// padding is half-effective but never incorrect.
const cacheLine = 64

// alignedInt64 returns a zeroed []int64 of length n whose backing array
// starts on a cache-line boundary. Per-worker accumulators are the hottest
// write target of the parallel phase; when the runtime lays two workers'
// arrays end to end, the last line of one and the first line of the next
// ping-pong between cores on every round. Alignment (plus the slice's
// exclusive capacity) keeps each worker's lines private.
func alignedInt64(n int) []int64 {
	const pad = cacheLine / 8
	raw := make([]int64, n+pad)
	off := 0
	for uintptr(unsafe.Pointer(&raw[off]))%cacheLine != 0 {
		off++
	}
	return raw[off : off+n : off+n]
}

// alignedBools is alignedInt64 for the per-worker touched-stamp (mark)
// arrays, which the reduction phase writes from range-partitioned reducers.
func alignedBools(n int) []bool {
	raw := make([]bool, n+cacheLine)
	off := 0
	for uintptr(unsafe.Pointer(&raw[off]))%cacheLine != 0 {
		off++
	}
	return raw[off : off+n : off+n]
}
