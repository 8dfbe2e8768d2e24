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
//     half must not exceed its first-half peak (-rcgrowth), and
//     optionally the final ratio stays under a ceiling (-rcmaxratio;
//     CI ratchets the recorded value through scripts/reclaimgate.sh);
//   - recovery: a WAL-armed swept run, killed and replayed through
//     core.Recover, converges to the pre-crash fingerprint — reclaim
//     records replay idempotently (the kill-at-every-byte matrix covers
//     every prefix; this covers the full log end-to-end).

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"papyrus/internal/core"
	"papyrus/internal/obs"
	"papyrus/internal/workload"
)

var (
	rcSeed     int64
	rcSessions int
	rcDepth    int
	rcFanout   int
	rcWorkers  int
	rcSweep    int
	rcBudget   int
	rcGrowth   float64
	rcMaxRatio float64
	rcOut      string
)

// reclaimRow is one mode's cell of BENCH_reclaim.json.
type reclaimRow struct {
	Mode     string `json:"mode"` // "swept", "unswept", or "durable"
	Seed     int64  `json:"seed"`
	Sessions int    `json:"sessions"`
	Depth    int    `json:"depth"`
	Rounds   int    `json:"rounds"`
	Steps    int64  `json:"steps"`
	// WrittenBytes is every payload byte ever stored; LiveBytes is what
	// the store still holds at the end. Ratio = live/written is the
	// bounded-memory figure of merit; Checkpoints samples it at every
	// round barrier (after the sweep, when one ran).
	WrittenBytes int64     `json:"written_bytes"`
	LiveBytes    int64     `json:"live_bytes"`
	Ratio        float64   `json:"ratio"`
	Checkpoints  []float64 `json:"checkpoints,omitempty"`
	// ReclaimedVersions/Bytes are the oct.reclaim.* counters: how much
	// the sweeps physically deleted.
	ReclaimedVersions int64   `json:"reclaimed_versions"`
	ReclaimedBytes    int64   `json:"reclaimed_bytes"`
	WallMS            float64 `json:"wall_ms"`
	StatsSHA          string  `json:"stats_sha256,omitempty"`
	VersionSHA        string  `json:"version_sha256"`
	// VisibleSHA fingerprints only the visible version-map lines — the
	// sweep-invariant projection the modulo-reclaimed gate compares.
	VisibleSHA string `json:"visible_sha256"`
	// Recovered is set on the durable cell: the crash-replayed store
	// matched the pre-crash fingerprint.
	Recovered bool `json:"recovered,omitempty"`
}

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
func runReclaimCell(sweep, durable bool) reclaimRow {
	w, err := workload.Generate(workload.Spec{
		Profile:  "rework",
		Seed:     rcSeed,
		Sessions: rcSessions,
		Depth:    rcDepth,
		Fanout:   rcFanout,
	})
	must(err)
	reg := obs.NewRegistry()
	base := core.Config{
		Nodes:            4,
		Workers:          rcWorkers,
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
	cfg := w.CoreConfig(base)
	sys, err := core.New(cfg)
	must(err)

	opts := workload.Options{ForceRounds: true, SweepBudget: rcBudget}
	if sweep {
		opts.SweepEveryRounds = rcSweep
	}
	var checkpoints []float64
	opts.OnRound = func(round int) error {
		written := sys.Store.TotalWrittenBytes()
		if written > 0 {
			checkpoints = append(checkpoints, float64(sys.Store.TotalBytes())/float64(written))
		}
		return nil
	}

	mode := "unswept"
	if sweep {
		mode = "swept"
	}
	if durable {
		mode = "durable"
	}
	start := time.Now()
	must(workload.RunInProcess(sys, w, opts))
	wall := time.Since(start)

	vm := sys.Store.VersionMapText()
	written := sys.Store.TotalWrittenBytes()
	row := reclaimRow{
		Mode:              mode,
		Seed:              rcSeed,
		Sessions:          rcSessions,
		Depth:             rcDepth,
		Rounds:            w.Rounds,
		Steps:             reg.Counter("task.step.complete"),
		WrittenBytes:      written,
		LiveBytes:         sys.Store.TotalBytes(),
		Checkpoints:       checkpoints,
		ReclaimedVersions: reg.Counter("oct.reclaim.versions"),
		ReclaimedBytes:    reg.Counter("oct.reclaim.bytes"),
		WallMS:            float64(wall.Microseconds()) / 1000,
		VersionSHA:        fmt.Sprintf("%x", sha256.Sum256([]byte(vm))),
		VisibleSHA:        visibleMapSHA(vm),
	}
	if written > 0 {
		row.Ratio = float64(row.LiveBytes) / float64(written)
	}
	// The durable registry carries WAL counters whose grouping depends
	// on fsync batching; only the volatile cells contribute the
	// deterministic stats fingerprint.
	if !durable {
		row.StatsSHA = statsSHA(reg)
	}
	if durable {
		// Kill (no graceful drain beyond the commit-before-ack contract)
		// and replay the full log: the recovered store must converge on
		// the pre-crash content, reclaim records included.
		preCrash := sys.Store.Fingerprint()
		must(sys.Close())
		rec, _, err := core.Recover(cfg, "")
		must(err)
		row.Recovered = rec.Store.Fingerprint() == preCrash
		if !row.Recovered {
			log.Fatalf("reclaim: recovery diverged (recovered %s, pre-crash %s)",
				rec.Store.Fingerprint()[:12], preCrash[:12])
		}
		must(rec.Close())
		must(os.RemoveAll(walDir))
	} else {
		must(sys.Close())
	}
	return row
}

// expReclaim is E17. Fingerprint and recovery divergence are hard
// failures; the ratio gates are soft (-rcgrowth, -rcmaxratio) so CI's
// summary and table still flush.
func expReclaim() {
	fmt.Println("## E17: bounded-memory soak — incremental reclamation under deep rework")
	fmt.Printf("(seed %d, %d sessions, depth %d, fanout %d, sweep every %d round(s), budget %d)\n",
		rcSeed, rcSessions, rcDepth, rcFanout, rcSweep, rcBudget)
	fmt.Println("mode    | rounds | steps | written B | live B | ratio | reclaimed | gates")

	swept := runReclaimCell(true, false)
	again := runReclaimCell(true, false)
	if again.VersionSHA != swept.VersionSHA || again.StatsSHA != swept.StatsSHA {
		log.Fatalf("reclaim: repeat run diverged (versions %s vs %s, stats %s vs %s)",
			again.VersionSHA[:12], swept.VersionSHA[:12],
			again.StatsSHA[:12], swept.StatsSHA[:12])
	}
	unswept := runReclaimCell(false, false)
	if unswept.VisibleSHA != swept.VisibleSHA {
		log.Fatalf("reclaim: sweep changed the visible version map (%s vs %s)",
			swept.VisibleSHA[:12], unswept.VisibleSHA[:12])
	}
	if unswept.Steps != swept.Steps {
		log.Fatalf("reclaim: sweep changed completed steps (%d vs %d)",
			swept.Steps, unswept.Steps)
	}
	durable := runReclaimCell(true, true)
	if durable.VersionSHA != swept.VersionSHA {
		log.Fatalf("reclaim: WAL-armed run diverged from volatile (%s vs %s)",
			durable.VersionSHA[:12], swept.VersionSHA[:12])
	}

	// Bounded-memory gates on the swept reference. The ratio oscillates
	// by design — every fourth OLAP chain is kept, so it steps up when
	// one lands — so "non-growing" compares the peak over the soak's
	// second half against the peak over its first half (both halves must
	// contain kept rounds: depth >= 128).
	n := len(swept.Checkpoints)
	if rcGrowth > 0 && n >= 2 {
		peak := func(cs []float64) float64 {
			m := cs[0]
			for _, c := range cs[1:] {
				if c > m {
					m = c
				}
			}
			return m
		}
		first, second := peak(swept.Checkpoints[:n/2]), peak(swept.Checkpoints[n/2:])
		if second > first*rcGrowth {
			gateFail("reclaim gate: live/written ratio peak grew %.4f -> %.4f (limit %.2fx)",
				first, second, rcGrowth)
		}
	}
	if rcMaxRatio > 0 && swept.Ratio > rcMaxRatio {
		gateFail("reclaim gate: final live/written ratio %.4f exceeds ceiling %.4f",
			swept.Ratio, rcMaxRatio)
	}

	rows := []reclaimRow{swept, unswept, durable}
	for _, r := range rows {
		gate := "ok"
		if r.Mode == "durable" {
			gate = "ok (recovered)"
		}
		fmt.Printf("%-7s | %6d | %5d | %9d | %6d | %.4f | %9d | %s\n",
			r.Mode, r.Rounds, r.Steps, r.WrittenBytes, r.LiveBytes, r.Ratio,
			r.ReclaimedVersions, gate)
	}

	f, err := os.Create(rcOut)
	must(err)
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	must(enc.Encode(rows))
	must(f.Close())
	fmt.Printf("wrote %d rows to %s\n", len(rows), rcOut)
	// A stable line for scripts/reclaimgate.sh to ratchet on: the worst
	// final ratio across every sweep-enabled cell.
	maxRatio := 0.0
	for _, r := range rows {
		if r.Mode != "unswept" && r.Ratio > maxRatio {
			maxRatio = r.Ratio
		}
	}
	fmt.Printf("reclaim: max live/written ratio = %.4f\n", maxRatio)

	var md strings.Builder
	md.WriteString("### E17 reclaim: bounded-memory soak under deep rework\n\n")
	md.WriteString("| mode | rounds | steps | written B | live B | ratio | reclaimed versions | reclaimed B |\n")
	md.WriteString("|:---|---:|---:|---:|---:|---:|---:|---:|\n")
	for _, r := range rows {
		fmt.Fprintf(&md, "| %s | %d | %d | %d | %d | %.4f | %d | %d |\n",
			r.Mode, r.Rounds, r.Steps, r.WrittenBytes, r.LiveBytes, r.Ratio,
			r.ReclaimedVersions, r.ReclaimedBytes)
	}
	md.WriteString("\n")
	appendSummary(md.String())
}
