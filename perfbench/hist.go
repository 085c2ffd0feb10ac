package main

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// hist is a fixed-size log-linear histogram of non-negative int64
// samples (nanoseconds, in practice). Values below 2^subBits land in
// exact buckets; above that every power of two is split into 2^subBits
// equal buckets, so a bucket is at most 1/128 of its lower bound wide
// and its midpoint is within 0.4% of every sample it holds. The memory
// is fixed (43 KiB) however many samples are recorded, so a long run
// does not inflate the process's peak RSS. Record is safe for
// concurrent use.
type hist struct {
	n atomic.Uint64
	b [histBuckets]atomic.Uint64
}

const (
	subBits     = 7
	subCount    = 1 << subBits
	histMaxExp  = 40 // samples at or above 2^(histMaxExp+subBits+1) ns (~78 h) clamp into the last bucket
	histBuckets = (histMaxExp + 2) * subCount
)

func bucketOf(v int64) int {
	if v < subCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	u := uint64(v)
	e := bits.Len64(u) - subBits - 1 // u>>e lies in [subCount, 2·subCount)
	if e > histMaxExp {
		return histBuckets - 1
	}
	return (e+1)*subCount + int(u>>e) - subCount
}

// bucketLo returns the smallest value bucket i holds, and how many
// values it holds.
func bucketLo(i int) (lo, width float64) {
	if i < subCount {
		return float64(i), 1
	}
	e := i/subCount - 1
	return float64(uint64(i%subCount+subCount) << e), float64(uint64(1) << e)
}

// bucketMid returns the midpoint of bucket i.
func bucketMid(i int) float64 {
	lo, w := bucketLo(i)
	return lo + (w-1)/2
}

func (h *hist) record(v int64) {
	h.b[bucketOf(v)].Add(1)
	h.n.Add(1)
}

func (h *hist) count() uint64 { return h.n.Load() }

// quantile returns the q-quantile (0 < q ≤ 1) of the samples, or NaN
// when empty. Within the bucket holding the ⌈q·n⌉-th smallest sample
// it interpolates by rank, taking the bucket's samples as evenly
// spread, so the estimate moves smoothly with the data instead of
// jumping between bucket midpoints.
func (h *hist) quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return math.NaN()
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := range h.b {
		c := h.b[i].Load()
		if cum+c >= rank {
			lo, w := bucketLo(i)
			return lo + w*(float64(rank-cum)-0.5)/float64(c)
		}
		cum += c
	}
	return bucketMid(histBuckets - 1)
}

// latency summarises a histogram of nanosecond samples in the unit
// scale (1e3 for µs) at quantile q.
func (h *hist) at(q, scale float64) sample {
	return sample{v: h.quantile(q) / scale, n: h.count()}
}
