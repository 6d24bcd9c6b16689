package main

import "math/bits"

// hist is a fixed log-bucket latency histogram over nanoseconds: 128
// sub-buckets per power of two (≤0.8 % relative bucket width), 40 octaves
// (1 ns to ~18 min). It is allocated before the timed section and record
// never allocates, so sampling latency does not show up in allocs_per_op
// or heap_live_mb however long the run is.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSub     = 128 // sub-buckets per octave
	histSubBits = 7
	histOctaves = 40
	histBuckets = histOctaves * histSub
)

func histIndex(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	e := bits.Len64(v) - (histSubBits + 1)
	if e < 0 {
		e = 0
	}
	idx := e*histSub + int(v>>uint(e))
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// histBounds returns the bucket's lower bound and width in nanoseconds.
func histBounds(idx int) (lo, width float64) {
	if idx < 2*histSub {
		return float64(idx), 1
	}
	e := uint(idx/histSub - 1)
	m := uint64(idx%histSub + histSub)
	return float64(m << e), float64(uint64(1) << e)
}

func (h *hist) record(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, interpolated linearly
// inside the bucket that holds the rank so that two runs whose true
// quantiles differ inside one bucket still report different values.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, width := histBounds(i)
			return lo + width*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, width := histBounds(histBuckets - 1)
	return lo + width
}

// samplesBeyond is how many recorded samples lie above the q-quantile;
// a percentile is reported only with this count beside it.
func (h *hist) samplesBeyond(q float64) uint64 {
	return h.n - uint64(q*float64(h.n))
}
