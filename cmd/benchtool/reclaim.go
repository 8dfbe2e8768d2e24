package main

// reclaim.go is E17: the bounded-memory soak (docs/RECLAIM.md,
// EXPERIMENTS.md E17). The deep-rework workload profile runs to large
// depth with the incremental reclaimer sweeping at every round barrier
// (grace 0, so candidate sets are exact at the barrier), and the
// experiment reports the live-set-vs-total-written bytes ratio at every
// round checkpoint. Gates:
//
//   - repeat: two swept runs produce identical stats + version-map
//     fingerprints (reclamation is deterministic);
//   - modulo-reclaimed: a sweep-free run's *visible* version map is
//     byte-identical to the swept run's — sweeping removes exactly the
//     invisible-past-grace versions and nothing else (version numbers
//     are never reused, so the visible lines cannot shift);
//   - bounded: the live/written ratio's peak over the soak's second
//     half must not exceed its first-half peak by more than 5%, and the
//     final ratio stays under a ratcheted ceiling (both in
//     scripts/gates.txt);
//   - recovery: a WAL-armed swept run, killed and replayed through
//     core.Recover, converges to the pre-crash fingerprint — reclaim
//     records replay idempotently (the kill-at-every-byte matrix covers
//     every prefix; this covers the full log end-to-end).

import (
	"crypto/sha256"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"

	"papyrus/internal/core"
	"papyrus/internal/obs"
	"papyrus/internal/workload"
)

// reclaimConfig fixes the cells of one E17 run: the rework profile at
// seed 7, 4 sessions, fanout 4 and 4 workers, to the given depth
// (rounds = depth/8), sweeping the whole store at every round barrier.
type reclaimConfig struct{ depth int }

// Cells swept, unswept and durable are the three modes; swept/rNN is the
// swept run's live/written ratio at round barrier NN. written_bytes is
// every payload byte ever stored and live_bytes what the store still
// holds; ratio = live/written is the bounded-memory figure of merit.
// reclaimed_* are the oct.reclaim.* counters. peak_growth (swept) is the
// ratio's peak over the soak's second half divided by its first-half
// peak. visible_sha256 fingerprints only the visible version-map lines,
// the projection sweeping must never change.
var reclaimExp = &experiment{
	title: "E17 reclaim: bounded-memory soak under deep rework",
	metrics: []metric{
		{"rounds", "1"}, {"steps", "1"}, {"wall_ms", "ms"}, {"steps_per_s", "1/s"},
		{"allocs_per_step", "1"}, {"bytes_per_step", "B"},
		{"written_bytes", "B"}, {"live_bytes", "B"}, {"ratio", "1"}, {"peak_growth", "x"},
		{"reclaimed_versions", "1"}, {"reclaimed_bytes", "B"},
		{"stats_sha256", "sha256"}, {"version_sha256", "sha256"}, {"visible_sha256", "sha256"},
	},
}

// reclaimCell is one measured soak.
type reclaimCell struct {
	d                                 drive
	rounds                            int
	steps, written, live              int64
	reclaimedVersions, reclaimedBytes int64
	checkpoints                       []float64
	stats, versions, visible          string
}

func (c reclaimCell) ratio() float64 { return float64(c.live) / float64(c.written) }

// visibleMapSHA fingerprints the visible lines of a version map — the
// projection physical reclamation must never change.
func visibleMapSHA(text string) string {
	var b strings.Builder
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, " visible=true ") {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
}

// runReclaimCell drives one deep-rework soak. sweep arms barrier sweeps;
// durable arms a WAL in a temp dir, then crashes and recovers from it.
func runReclaimCell(cfg reclaimConfig, sweep, durable bool) reclaimCell {
	w, err := workload.Generate(workload.Spec{
		Profile:  "rework",
		Seed:     7,
		Sessions: 4,
		Depth:    cfg.depth,
		Fanout:   4,
	})
	must(err)
	reg := obs.NewRegistry()
	base := core.Config{
		Nodes:            4,
		Workers:          4,
		DisableInference: true,
		Metrics:          reg,
		ReclaimGrace:     0,
	}
	var walDir string
	if durable {
		walDir, err = os.MkdirTemp("", "e17-wal-*")
		must(err)
		base.Durability = &core.DurabilityConfig{Dir: walDir, FsyncEvery: 64, SegmentBytes: 1 << 20}
	}
	ccfg := w.CoreConfig(base)
	sys, err := core.New(ccfg)
	must(err)

	opts := workload.Options{ForceRounds: true}
	if sweep {
		opts.SweepEveryRounds = 1
	}
	var checkpoints []float64
	opts.OnRound = func(round int) error {
		written := sys.Store.TotalWrittenBytes()
		if written > 0 {
			checkpoints = append(checkpoints, float64(sys.Store.TotalBytes())/float64(written))
		}
		return nil
	}
	d, err := measure(func() error { return workload.RunInProcess(sys, w, opts) })
	must(err)

	vm := sys.Store.VersionMapText()
	c := reclaimCell{
		d:                 d,
		rounds:            w.Rounds,
		steps:             reg.Counter("task.step.complete"),
		written:           sys.Store.TotalWrittenBytes(),
		live:              sys.Store.TotalBytes(),
		reclaimedVersions: reg.Counter("oct.reclaim.versions"),
		reclaimedBytes:    reg.Counter("oct.reclaim.bytes"),
		checkpoints:       checkpoints,
		versions:          fmt.Sprintf("%x", sha256.Sum256([]byte(vm))),
		visible:           visibleMapSHA(vm),
	}
	// The durable registry carries WAL counters whose grouping depends
	// on fsync batching; only the volatile cells contribute the
	// deterministic stats fingerprint.
	if !durable {
		c.stats = statsSHA(reg)
		must(sys.Close())
		return c
	}
	// Kill (no graceful drain beyond the commit-before-ack contract)
	// and replay the full log: the recovered store must converge on
	// the pre-crash content, reclaim records included.
	preCrash := sys.Store.Fingerprint()
	must(sys.Close())
	rec, _, err := core.Recover(ccfg, "")
	must(err)
	if got := rec.Store.Fingerprint(); got != preCrash {
		log.Fatalf("reclaim: recovery diverged (recovered %s, pre-crash %s)", got[:12], preCrash[:12])
	}
	must(rec.Close())
	must(os.RemoveAll(walDir))
	return c
}

// drive runs E17. Fingerprint and recovery divergence are hard
// failures; the ratio bounds are gates.
func (cfg reclaimConfig) drive() []Row {
	fmt.Println("## E17: bounded-memory soak — incremental reclamation under deep rework")
	fmt.Printf("(seed 7, 4 sessions, depth %d, fanout 4, sweep every 1 round(s), budget 0)\n", cfg.depth)

	swept := runReclaimCell(cfg, true, false)
	again := runReclaimCell(cfg, true, false)
	if again.versions != swept.versions || again.stats != swept.stats {
		log.Fatalf("reclaim: repeat run diverged (versions %s vs %s, stats %s vs %s)",
			again.versions[:12], swept.versions[:12], again.stats[:12], swept.stats[:12])
	}
	unswept := runReclaimCell(cfg, false, false)
	if unswept.visible != swept.visible {
		log.Fatalf("reclaim: sweep changed the visible version map (%s vs %s)",
			swept.visible[:12], unswept.visible[:12])
	}
	if unswept.steps != swept.steps {
		log.Fatalf("reclaim: sweep changed completed steps (%d vs %d)", swept.steps, unswept.steps)
	}
	durable := runReclaimCell(cfg, true, true)
	if durable.versions != swept.versions {
		log.Fatalf("reclaim: WAL-armed run diverged from volatile (%s vs %s)",
			durable.versions[:12], swept.versions[:12])
	}

	rs := rowSet{exp: reclaimExp}
	for _, m := range []struct {
		cell string
		c    reclaimCell
	}{{"swept", swept}, {"unswept", unswept}, {"durable", durable}} {
		rs.add(m.cell, "rounds", float64(m.c.rounds))
		rs.addDrive(m.cell, m.c.d, m.c.steps)
		rs.add(m.cell, "written_bytes", float64(m.c.written))
		rs.add(m.cell, "live_bytes", float64(m.c.live))
		rs.add(m.cell, "ratio", m.c.ratio())
		rs.add(m.cell, "reclaimed_versions", float64(m.c.reclaimedVersions))
		rs.add(m.cell, "reclaimed_bytes", float64(m.c.reclaimedBytes))
		if m.c.stats != "" {
			rs.digest(m.cell, "stats_sha256", m.c.stats)
		}
		rs.digest(m.cell, "version_sha256", m.c.versions)
		rs.digest(m.cell, "visible_sha256", m.c.visible)
	}
	// The ratio oscillates by design — every fourth OLAP chain is kept,
	// so it steps up when one lands — so "non-growing" compares the peak
	// over the soak's second half against the peak over its first half
	// (both halves contain kept rounds only at depth >= 128).
	if n := len(swept.checkpoints); n >= 2 {
		first, second := slices.Max(swept.checkpoints[:n/2]), slices.Max(swept.checkpoints[n/2:])
		rs.add("swept", "peak_growth", second/first)
	}
	for i, r := range swept.checkpoints {
		rs.add(fmt.Sprintf("swept/r%02d", i+1), "ratio", r)
	}
	return rs.rows
}
