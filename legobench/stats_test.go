package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of empty sample = %v, want 0", got)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{100, 0.9, true},   // rank 90: samples 91..100 lie beyond
		{99, 0.9, false},   // rank 90: only 9 beyond
		{1000, 0.99, true}, // rank 990: 10 beyond
		{999, 0.99, false}, // rank 990: 9 beyond
		{20, 0.5, true},    // rank 10: 10 beyond
		{19, 0.5, false},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	if got := highestSupported(999, 0.5, 0.9, 0.99); got != 0.9 {
		t.Errorf("highestSupported(999) = %v, want 0.9", got)
	}
	if got := highestSupported(1000, 0.5, 0.9, 0.99); got != 0.99 {
		t.Errorf("highestSupported(1000) = %v, want 0.99", got)
	}
	if got := highestSupported(15, 0.5, 0.9); got != 0 {
		t.Errorf("highestSupported(15) = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	vals := []float64{5, 1, 3}
	if got := median(vals); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if vals[0] != 5 {
		t.Errorf("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
}
