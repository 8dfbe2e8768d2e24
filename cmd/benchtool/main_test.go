package main

// The experiment functions are exercised directly on small cells, so
// the tables CI regenerates are also covered by `go test`. Every
// experiment is deterministic (virtual time, seeded workloads); a
// log.Fatal inside one — a fingerprint divergence or lost work — fails
// the test binary, which is exactly the check the full-size runs make.

import (
	"strings"
	"testing"
	"time"

	"papyrus/internal/obs"
)

func TestQualitativeExperiments(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"speedup", expSpeedup},
		{"remigration", expReMigration},
		{"scopecache", expScopeCache},
		{"storage", expStorage},
		{"rework", expRework},
		{"viewport", expViewport},
		{"inference", expInference},
		{"abort", expAbort},
		{"rebuild", expRebuild},
		{"faults", expFaults},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run() })
	}
}

// num returns the numeric value of the row with the given cell and
// metric, failing the test if there is none.
func num(t *testing.T, rows []Row, cell, metric string) float64 {
	t.Helper()
	r, ok := find(rows, cell, metric)
	if !ok {
		t.Fatalf("no row %s %s", cell, metric)
	}
	v, ok := r.value()
	if !ok {
		t.Fatalf("%s %s = %v, not a number", cell, metric, r.Value)
	}
	return v
}

// digest returns the fingerprint of the given cell and metric.
func digest(t *testing.T, rows []Row, cell, metric string) string {
	t.Helper()
	r, ok := find(rows, cell, metric)
	if !ok {
		t.Fatalf("no row %s %s", cell, metric)
	}
	hex, ok := r.Value.(string)
	if !ok || len(hex) != 64 {
		t.Fatalf("%s %s = %v, not a SHA-256 digest", cell, metric, r.Value)
	}
	return hex
}

func TestScaleExperiment(t *testing.T) {
	cfg := scaleConfig{sessions: []int{2}, workers: []int{1, 2}, latency: 100 * time.Microsecond}
	var stats []string
	for _, memo := range []bool{false, true} {
		cfg.memo = memo
		rows := cfg.drive()
		for _, cell := range []string{"s2/w1", "s2/w2"} {
			if num(t, rows, cell, "steps") != 8 {
				t.Errorf("memo=%v %s: steps = %v, want 8", memo, cell, num(t, rows, cell, "steps"))
			}
			if num(t, rows, cell, "allocs_per_step") <= 0 || num(t, rows, cell, "bytes_per_step") <= 0 {
				t.Errorf("memo=%v %s: allocation counting left no allocs/step or bytes/step", memo, cell)
			}
			digest(t, rows, cell, "version_sha256")
		}
		if num(t, rows, "s2/w1", "speedup") != 1 {
			t.Errorf("memo=%v: 1-worker speedup = %v, want 1", memo, num(t, rows, "s2/w1", "speedup"))
		}
		num(t, rows, "s2", "max_vs_best_lower")
		// The drive already fataled on any intra-run divergence; across the
		// memo settings the filtered fingerprints must agree too.
		stats = append(stats, digest(t, rows, "s2/w2", "stats_sha256"))
	}
	if stats[0] != stats[1] {
		t.Errorf("memo-filtered stats fingerprint differs with memo on: %s vs %s", stats[0][:12], stats[1][:12])
	}
}

func TestReplayExperiment(t *testing.T) {
	rows := expReplay()
	for _, w := range []string{"w1", "w8"} {
		on, off := "memo-on/"+w, "memo-off/"+w
		if got := num(t, rows, on, "replay_ticks"); got != 0 {
			t.Errorf("%s: replay cost %v ticks, want 0", on, got)
		}
		if num(t, rows, off, "replay_ticks") != num(t, rows, off, "first_ticks") {
			t.Errorf("%s: replay %v != first run %v", off, num(t, rows, off, "replay_ticks"), num(t, rows, off, "first_ticks"))
		}
		if num(t, rows, on, "speedup") < 3 {
			t.Errorf("%s: speedup %v < 3", on, num(t, rows, on, "speedup"))
		}
		if digest(t, rows, on, "version_sha256") != digest(t, rows, off, "version_sha256") {
			t.Errorf("%s: memoized replay changed the version map", w)
		}
	}
}

// TestServeExperiment drives the full E13 path at a small size: an
// in-process papyrusd on a loopback listener, concurrent wire sessions
// and latency quantiles per request class.
func TestServeExperiment(t *testing.T) {
	rows := serveConfig{sessions: 8}.drive()
	if got := num(t, rows, "run", "steps"); got != 32 {
		t.Errorf("steps = %v, want 32 (8 sessions x 4 steps)", got)
	}
	digest(t, rows, "run", "version_sha256")
	for c, want := range map[string]float64{"open": 8, "import": 32, "task": 8, "history": 8, "close": 8, "all": 64} {
		if got := num(t, rows, c, "count"); got != want {
			t.Errorf("%s: %v requests, want %v", c, got, want)
		}
		if num(t, rows, c, "p50_ms") > num(t, rows, c, "p99_ms") {
			t.Errorf("%s: p50 above p99", c)
		}
	}
}

// TestWorkloadExperiment drives the full E15 path at a small size: two
// profiles expanded from one seed, the repeat and worker-invariance
// gates in-process and the wire-parity cell. Any fingerprint divergence
// log.Fatals inside the drive and fails the binary.
func TestWorkloadExperiment(t *testing.T) {
	rows := workloadConfig{profiles: []string{"interactive", "agentic"}}.drive()
	for _, p := range []string{"interactive", "agentic"} {
		for _, cell := range []string{p + "/core/w1", p + "/core/w4", p + "/wire/w4"} {
			if num(t, rows, cell, "steps") <= 0 {
				t.Errorf("%s: no steps", cell)
			}
			if digest(t, rows, cell, "version_sha256") != digest(t, rows, p+"/core/w1", "version_sha256") {
				t.Errorf("%s: version map differs from %s/core/w1", cell, p)
			}
			if _, ok := find(rows, cell, "stats_sha256"); ok == strings.Contains(cell, "/wire/") {
				t.Errorf("%s: stats fingerprint presence wrong", cell)
			}
		}
		best := max(num(t, rows, p+"/core/w1", "steps_per_s"), num(t, rows, p+"/core/w4", "steps_per_s"))
		if got := num(t, rows, p, "best_steps_per_s"); got != best {
			t.Errorf("%s: best_steps_per_s = %v, want the best in-process cell %v", p, got, best)
		}
	}
}

// TestReclaimExperiment drives the full E17 path at a small size: the
// deep-rework soak in all four cells (swept, swept repeat, unswept,
// WAL-armed with crash recovery). The repeat, modulo-reclaimed,
// step-identity and recovery checks all log.Fatal inside the drive on
// divergence. At depth 16 the soak has two rounds, so peak_growth has
// one checkpoint per half.
func TestReclaimExperiment(t *testing.T) {
	rows := reclaimConfig{depth: 16}.drive()
	for _, mode := range []string{"swept", "unswept", "durable"} {
		if num(t, rows, mode, "steps") <= 0 || num(t, rows, mode, "written_bytes") <= 0 {
			t.Errorf("%s: empty cell", mode)
		}
		// Sweeping must never change the visible version map.
		if digest(t, rows, mode, "visible_sha256") != digest(t, rows, "swept", "visible_sha256") {
			t.Errorf("%s: visible fingerprint diverged across modes", mode)
		}
		_, hasStats := find(rows, mode, "stats_sha256")
		if hasStats == (mode == "durable") {
			t.Errorf("%s: stats fingerprint presence wrong", mode)
		}
	}
	for _, mode := range []string{"swept", "durable"} {
		// The rework profile erases chains every round; barrier sweeps
		// with grace 0 must physically delete them.
		if num(t, rows, mode, "reclaimed_versions") <= 0 || num(t, rows, mode, "reclaimed_bytes") <= 0 {
			t.Errorf("%s: sweeps reclaimed nothing", mode)
		}
		if num(t, rows, mode, "ratio") >= 1 {
			t.Errorf("%s: live/written ratio %v not reduced", mode, num(t, rows, mode, "ratio"))
		}
	}
	if num(t, rows, "unswept", "reclaimed_versions") != 0 || num(t, rows, "unswept", "ratio") != 1 {
		t.Error("unswept: reclaimed with sweeps off")
	}
	growth := num(t, rows, "swept", "peak_growth")
	if want := num(t, rows, "swept/r02", "ratio") / num(t, rows, "swept/r01", "ratio"); growth != want {
		t.Errorf("peak_growth = %v, want second/first checkpoint %v", growth, want)
	}
}

// TestVisibleMapSHA pins the projection the modulo-reclaimed gate
// compares: invisible lines are excluded, visible lines are order- and
// content-sensitive.
func TestVisibleMapSHA(t *testing.T) {
	base := visibleMapSHA("/a@1 visible=true x\n/a@2 visible=false y\n")
	if got := visibleMapSHA("/a@1 visible=true x\n"); got != base {
		t.Errorf("invisible line changed the fingerprint")
	}
	if got := visibleMapSHA("/a@1 visible=true z\n"); got == base {
		t.Errorf("visible content change not detected")
	}
}

func TestStatsSHAFiltersMemoNamespace(t *testing.T) {
	a, b := obs.NewRegistry(), obs.NewRegistry()
	a.Inc("task.step.issue")
	b.Inc("task.step.issue")
	b.Inc("memo.hit")
	b.Add("memo.bytes", 512)
	if statsSHA(a) != statsSHA(b) {
		t.Error("memo.* counters leaked into the filtered fingerprint")
	}
	b.Inc("task.step.issue")
	if statsSHA(a) == statsSHA(b) {
		t.Error("non-memo counter change not reflected in the fingerprint")
	}
}

func TestFanTemplate(t *testing.T) {
	tpl := fanTemplate(3)
	if !strings.Contains(tpl, "task Fan {A} {D0 D1 D2 }") ||
		!strings.Contains(tpl, "step S3 {net} {D2} {misII -o D2 net}") {
		t.Errorf("fanTemplate(3):\n%s", tpl)
	}
}
