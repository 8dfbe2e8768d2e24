package main

import "testing"

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct{ n, want int }{
		{1000, 99}, // rank 990, 10 beyond
		{999, 98},  // p99 rank 990 leaves 9
		{500, 98},  // p99 rank 495 leaves 5; p98 rank 490 leaves 10
		{100, 90},  // p90 rank 90 leaves 10
		{64, 84},   // p84 rank 54 leaves 10; p85 rank 55 leaves 9
		{20, 50},   // only the median leaves 10
		{5, 50},    // too few for any tail
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 50 && c.n-rank(p, c.n) < minBeyond {
			t.Errorf("n=%d: p%d leaves %d samples beyond", c.n, p, c.n-rank(p, c.n))
		}
	}
}

func TestSpreadDistributionSeparatesMedianAndTail(t *testing.T) {
	// 1..2000 shuffled: exact quantiles are known and the tail is not
	// the maximum.
	var d dist
	for i := 0; i < 2000; i++ {
		d = append(d, float64((i*7919)%2000+1))
	}
	if got := d.median(); got != 1000 {
		t.Fatalf("median = %v, want 1000", got)
	}
	p, v := d.tail()
	if p != 99 || v != 1980 {
		t.Fatalf("tail = p%d %v, want p99 1980", p, v)
	}
	if !(d.median() < v && v < d.max()) {
		t.Fatalf("want p50 < p99 < max, got %v %v %v", d.median(), v, d.max())
	}
}

func TestSmallSampleTailIsNotTheMax(t *testing.T) {
	var d dist
	for i := 1; i <= 40; i++ {
		d = append(d, float64(i))
	}
	p, v := d.tail()
	if p != 75 || v != 30 {
		t.Fatalf("tail = p%d %v, want p75 30 (ten samples beyond)", p, v)
	}
}
