package main

import (
	"math"
	"testing"
)

// TestHistRelativeError checks the fixed-memory histogram's promise:
// every sample's bucket midpoint is within 0.4% of it, so reported
// quantiles carry well under 1% error.
func TestHistRelativeError(t *testing.T) {
	for v := int64(0); v < 1<<40; v = v*9/8 + 1 {
		for _, x := range []int64{v, v + 1, 2*v + 1} {
			mid := bucketMid(bucketOf(x))
			if x > 0 && math.Abs(mid-float64(x))/float64(x) > 0.004 {
				t.Fatalf("sample %d lands in bucket with midpoint %g", x, mid)
			}
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100_000; v++ {
		h.record(v * 1000)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 100_000 * 1000
		if got := h.quantile(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%g = %g, want %g within 1%%", q, got, want)
		}
	}
}

func TestBitsetSet(t *testing.T) {
	var b bitset
	for _, i := range []uint64{0, 63, 64, chunkBits - 1, chunkBits, 5 * chunkBits} {
		if b.set(i) {
			t.Fatalf("%d reported present before set", i)
		}
		if !b.set(i) {
			t.Fatalf("%d not present after set", i)
		}
	}
	if b.set(1) {
		t.Fatal("1 present but never set")
	}
}

func TestRecentIDs(t *testing.T) {
	var w recentIDs
	for _, id := range []uint64{1, 2, recentSlots + 1} {
		if seen, old := w.set(id); seen || old {
			t.Fatalf("%d: seen=%v tooOld=%v on first set", id, seen, old)
		}
	}
	if seen, _ := w.set(2); !seen {
		t.Fatal("2 not seen after set")
	}
	if _, old := w.set(1); !old {
		t.Fatal("1 not too old after a newer id took its slot")
	}
}
