package main

// workload.go is E15: the generated-scenario sweep. Every named workload
// profile (internal/workload, docs/WORKLOADS.md) is expanded from one
// seed and driven three ways — twice in-process at the first worker
// count (repeat gate), once at every other worker count (invariance
// gate), and once over the papyrusd wire path on a single-shard server
// (cross-path gate). The version-map fingerprint must be identical
// across all of them, and the memo-filtered stats fingerprint across the
// in-process cells; wall-clock throughput is the one host-dependent
// column (EXPERIMENTS.md E15).

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"papyrus/internal/client"
	"papyrus/internal/core"
	"papyrus/internal/obs"
	"papyrus/internal/server"
	"papyrus/internal/workload"
)

var (
	wlProfiles string
	wlSeed     int64
	wlSessions int
	wlDepth    int
	wlFanout   int
	wlWorkers  string
	wlMin      float64
	wlOut      string
)

// workloadRow is one (profile, path, workers) cell of BENCH_workload.json.
type workloadRow struct {
	Profile  string `json:"profile"`
	Seed     int64  `json:"seed"`
	Sessions int    `json:"sessions"`
	Depth    int    `json:"depth"`
	Fanout   int    `json:"fanout"`
	Rounds   int    `json:"rounds"`
	// Path is "core" (in-process engine) or "wire" (papyrusd loopback).
	Path    string `json:"path"`
	Workers int    `json:"workers"`
	// Steps and StepsPerSec measure completed engine work; WallMS is the
	// whole drive (host-dependent, excluded from the fingerprints).
	Steps       int64   `json:"steps"`
	WallMS      float64 `json:"wall_ms"`
	StepsPerSec float64 `json:"steps_per_sec"`
	// StatsSHA is the memo-filtered metrics fingerprint, compared across
	// the in-process cells only: the wire registry also carries
	// wall-clock latency histograms. VersionSHA is the final OCT version
	// map and must be identical across every cell of a profile,
	// in-process and wire alike.
	StatsSHA   string `json:"stats_sha256,omitempty"`
	VersionSHA string `json:"version_sha256"`
}

// runWorkloadCore drives one profile in-process at the given worker count.
func runWorkloadCore(w *workload.Workload, workers int) workloadRow {
	reg := obs.NewRegistry()
	cfg := w.CoreConfig(core.Config{
		Nodes:            4,
		Workers:          workers,
		DisableInference: true,
		Metrics:          reg,
	})
	sys, err := core.New(cfg)
	must(err)
	start := time.Now()
	must(workload.RunInProcess(sys, w, workload.Options{}))
	wall := time.Since(start)
	steps := reg.Counter("task.step.complete")
	row := workloadRow{
		Profile:     w.Spec.Profile,
		Seed:        w.Spec.Seed,
		Sessions:    w.Spec.Sessions,
		Depth:       w.Spec.Depth,
		Fanout:      w.Spec.Fanout,
		Rounds:      w.Rounds,
		Path:        "core",
		Workers:     workers,
		Steps:       steps,
		WallMS:      float64(wall.Microseconds()) / 1000,
		StepsPerSec: float64(steps) / wall.Seconds(),
		StatsSHA:    statsSHA(reg),
		VersionSHA:  fmt.Sprintf("%x", sha256.Sum256([]byte(sys.Store.VersionMapText()))),
	}
	must(sys.Close())
	return row
}

// runWorkloadWire drives the same profile through a single-shard papyrusd
// on a loopback listener. One shard means designer i lands on engine
// session index i exactly as RunInProcess allocates it, so the final
// version map must match the in-process cells byte for byte.
func runWorkloadWire(w *workload.Workload, workers int) workloadRow {
	reg := obs.NewRegistry()
	srv, err := server.New(server.Config{
		Shards:           1,
		Nodes:            4,
		Workers:          workers,
		ExtraTemplates:   w.Templates,
		DisableInference: !w.Inference,
		Fault:            w.Fault,
		Retry:            w.Retry,
		Admission:        server.AdmissionConfig{Workers: 8, MaxQueue: 1024},
		Metrics:          reg,
	})
	must(err)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	must(err)
	httpSrv := &http.Server{Handler: srv}
	go func() { _ = httpSrv.Serve(ln) }()
	cl := client.New("http://" + ln.Addr().String())
	cl.RetryBudget = 100
	cl.Backoff = func(hint time.Duration) { time.Sleep(hint / 4) }

	start := time.Now()
	must(workload.RunWire(cl, w, "wl-"+w.Spec.Profile))
	wall := time.Since(start)
	steps := reg.Counter("task.step.complete")
	row := workloadRow{
		Profile:     w.Spec.Profile,
		Seed:        w.Spec.Seed,
		Sessions:    w.Spec.Sessions,
		Depth:       w.Spec.Depth,
		Fanout:      w.Spec.Fanout,
		Rounds:      w.Rounds,
		Path:        "wire",
		Workers:     workers,
		Steps:       steps,
		WallMS:      float64(wall.Microseconds()) / 1000,
		StepsPerSec: float64(steps) / wall.Seconds(),
		VersionSHA:  fmt.Sprintf("%x", sha256.Sum256([]byte(srv.ShardSystem(0).Store.VersionMapText()))),
	}
	must(httpSrv.Close())
	must(srv.Close())
	return row
}

// expWorkload is E15. Fingerprint divergence is a hard failure; the only
// soft gate is the -wlmin throughput floor.
func expWorkload() {
	fmt.Println("## E15: generated workloads — every scenario profile, in-process and over the wire")
	fmt.Printf("(seed %d, %d sessions, depth %d, fanout %d; version fingerprint must match across every cell of a profile)\n",
		wlSeed, wlSessions, wlDepth, wlFanout)
	profiles := workload.Profiles()
	if wlProfiles != "all" && wlProfiles != "" {
		profiles = nil
		for _, p := range strings.Split(wlProfiles, ",") {
			if p = strings.TrimSpace(p); p != "" {
				profiles = append(profiles, p)
			}
		}
	}
	workerCounts := parseIntList(wlWorkers)
	if len(workerCounts) == 0 {
		workerCounts = []int{1}
	}

	fmt.Println("profile | path | workers | rounds | steps | wall ms | steps/sec | fingerprints")
	var rows []workloadRow
	for _, profile := range profiles {
		w, err := workload.Generate(workload.Spec{
			Profile:  profile,
			Seed:     wlSeed,
			Sessions: wlSessions,
			Depth:    wlDepth,
			Fanout:   wlFanout,
		})
		must(err)

		// Repeat gate: the first worker count runs twice and both
		// fingerprints must agree before anything else is trusted.
		ref := runWorkloadCore(w, workerCounts[0])
		again := runWorkloadCore(w, workerCounts[0])
		if again.VersionSHA != ref.VersionSHA || again.StatsSHA != ref.StatsSHA {
			log.Fatalf("workload %s: repeat run diverged (versions %s vs %s, stats %s vs %s)",
				profile, again.VersionSHA[:12], ref.VersionSHA[:12], again.StatsSHA[:12], ref.StatsSHA[:12])
		}
		best := ref
		cells := []workloadRow{ref}
		for _, workers := range workerCounts[1:] {
			row := runWorkloadCore(w, workers)
			if row.VersionSHA != ref.VersionSHA {
				log.Fatalf("workload %s: version map diverged at workers=%d (%s vs %s)",
					profile, workers, row.VersionSHA[:12], ref.VersionSHA[:12])
			}
			if row.StatsSHA != ref.StatsSHA {
				log.Fatalf("workload %s: stats fingerprint diverged at workers=%d (%s vs %s)",
					profile, workers, row.StatsSHA[:12], ref.StatsSHA[:12])
			}
			if row.StepsPerSec > best.StepsPerSec {
				best = row
			}
			cells = append(cells, row)
		}
		wire := runWorkloadWire(w, workerCounts[len(workerCounts)-1])
		if wire.VersionSHA != ref.VersionSHA {
			log.Fatalf("workload %s: wire version map diverged from in-process (%s vs %s)",
				profile, wire.VersionSHA[:12], ref.VersionSHA[:12])
		}
		if wire.Steps != ref.Steps {
			log.Fatalf("workload %s: wire completed %d steps, in-process %d", profile, wire.Steps, ref.Steps)
		}
		cells = append(cells, wire)
		for _, row := range cells {
			fp := row.VersionSHA[:12]
			if row.StatsSHA != "" {
				fp = row.StatsSHA[:12] + "/" + fp
			}
			fmt.Printf("%-11s | %-4s | %7d | %6d | %5d | %7.1f | %9.1f | ok (%s)\n",
				row.Profile, row.Path, row.Workers, row.Rounds, row.Steps, row.WallMS, row.StepsPerSec, fp)
		}
		rows = append(rows, cells...)
		if wlMin > 0 && best.StepsPerSec < wlMin {
			gateFail("workload gate: profile %s best cell %.1f steps/sec < required %.1f",
				profile, best.StepsPerSec, wlMin)
		}
	}

	f, err := os.Create(wlOut)
	must(err)
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	must(enc.Encode(rows))
	must(f.Close())
	fmt.Printf("wrote %d rows to %s\n", len(rows), wlOut)

	var md strings.Builder
	md.WriteString("### E15 workload: generated scenario profiles\n\n")
	md.WriteString("| profile | path | workers | rounds | steps | steps/sec |\n")
	md.WriteString("|:---|:---|---:|---:|---:|---:|\n")
	for _, r := range rows {
		fmt.Fprintf(&md, "| %s | %s | %d | %d | %d | %.1f |\n",
			r.Profile, r.Path, r.Workers, r.Rounds, r.Steps, r.StepsPerSec)
	}
	md.WriteString("\n")
	appendSummary(md.String())
}
