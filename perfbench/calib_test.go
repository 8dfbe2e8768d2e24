package main

import (
	"math"
	"testing"
	"time"
)

// A pass run on a host twice as slow, with the kernel measuring it so,
// reports the same scaled metrics as the pass on the reference host.
func TestScaledMetricsCancelHostSlowdown(t *testing.T) {
	pass := func(slow float64) *passResult {
		d := func(ms float64) time.Duration { return time.Duration(ms * slow * float64(time.Millisecond)) }
		return &passResult{
			speed: hostSpeed{wall: slow, cpu: slow},
			steps: 100, drive: d(10), cpu: d(9), recover: d(2),
			mallocs: 1000, allocB: 64000, heapB: 4 << 20,
			taskMS: dist{0.2 * slow, 0.3 * slow, 0.4 * slow}, opMS: dist{0.1 * slow, 0.2 * slow},
			checks: checks{restart: true},
		}
	}
	ref, _ := endToEnd([]*passResult{pass(1)}, dist{1e-4}, true)
	want := map[string]float64{
		"setup_s": 1e-4, "steps_per_s": 10000, "task_p50_ms": 0.3, "op_p50_ms": 0.1,
		"recover_s": 0.002, "cpu_us_per_step": 90, "allocs_per_step": 10,
		"alloc_bytes_per_step": 640, "heap_mb": 4,
	}
	for _, m := range ref {
		if w, ok := want[m.name]; ok && math.Abs(m.value-w) > 1e-9*w {
			t.Errorf("%s = %g on the reference host, want %g", m.name, m.value, w)
		}
	}
	got, _ := endToEnd([]*passResult{pass(2)}, dist{1e-4}, true)
	raw, _ := endToEnd([]*passResult{pass(2)}, dist{2e-4}, false)
	for i, m := range ref {
		if math.Abs(got[i].value-m.value) > 1e-9*math.Abs(m.value) {
			t.Errorf("%s: scaled %g on the slow host, %g on the reference host", m.name, got[i].value, m.value)
		}
	}
	for i, m := range raw {
		if m.name == "steps_per_s" && m.value*2 != ref[i].value {
			t.Errorf("as timed steps_per_s = %g, want half of %g", m.value, ref[i].value)
		}
	}
}

func TestCalibrateReportsPositiveSlowdown(t *testing.T) {
	var k kernelRuns
	k.time()
	if s := k.speed(); s.wall <= 0 || s.cpu <= 0 || len(k.wall) != calibReps {
		t.Fatalf("%d kernel runs gave %+v, want %d runs and positive slowdowns", len(k.wall), s, calibReps)
	}
}
