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
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"papyrus/internal/client"
	"papyrus/internal/core"
	"papyrus/internal/obs"
	"papyrus/internal/server"
	"papyrus/internal/workload"
)

// workloadConfig fixes the cells of one E15 run: each profile at seed 7,
// 4 sessions, depth 6 and fanout 4, in-process at 1 and 4 workers and
// over the wire at 4.
type workloadConfig struct{ profiles []string }

var workloadSpec = workload.Spec{Seed: 7, Sessions: 4, Depth: 6, Fanout: 4}

// Cells are <profile>/core/w<W> (in-process) and <profile>/wire/w<W>
// (papyrusd loopback); cell <profile> carries best_steps_per_s, the
// best in-process cell. stats_sha256 is the memo-filtered metrics
// fingerprint, compared across the in-process cells only: the wire
// registry also carries wall-clock latency histograms. version_sha256 is
// the final OCT version map and must be identical across every cell of a
// profile, in-process and wire alike.
var workloadExp = &experiment{
	title: "E15 workload: generated scenario profiles",
	metrics: []metric{
		{"rounds", "1"}, {"steps", "1"}, {"wall_ms", "ms"}, {"steps_per_s", "1/s"},
		{"best_steps_per_s", "1/s"}, {"allocs_per_step", "1"}, {"bytes_per_step", "B"},
		{"stats_sha256", "sha256"}, {"version_sha256", "sha256"},
	},
}

// workloadCell is one measured (profile, path, workers) drive.
type workloadCell struct {
	d               drive
	steps           int64
	stats, versions string
}

func (c workloadCell) perSec() float64 { return float64(c.steps) / c.d.wall.Seconds() }

// runWorkloadCore drives one profile in-process at the given worker count.
func runWorkloadCore(w *workload.Workload, workers int) workloadCell {
	reg := obs.NewRegistry()
	cfg := w.CoreConfig(core.Config{
		Nodes:            4,
		Workers:          workers,
		DisableInference: true,
		Metrics:          reg,
	})
	sys, err := core.New(cfg)
	must(err)
	d, err := measure(func() error { return workload.RunInProcess(sys, w, workload.Options{}) })
	must(err)
	c := workloadCell{
		d:        d,
		steps:    reg.Counter("task.step.complete"),
		stats:    statsSHA(reg),
		versions: fmt.Sprintf("%x", sha256.Sum256([]byte(sys.Store.VersionMapText()))),
	}
	must(sys.Close())
	return c
}

// runWorkloadWire drives the same profile through a single-shard papyrusd
// on a loopback listener. One shard means designer i lands on engine
// session index i exactly as RunInProcess allocates it, so the final
// version map must match the in-process cells byte for byte.
func runWorkloadWire(w *workload.Workload, workers int) workloadCell {
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

	d, err := measure(func() error { return workload.RunWire(cl, w, "wl-"+w.Spec.Profile) })
	must(err)
	c := workloadCell{
		d:        d,
		steps:    reg.Counter("task.step.complete"),
		versions: fmt.Sprintf("%x", sha256.Sum256([]byte(srv.ShardSystem(0).Store.VersionMapText()))),
	}
	must(httpSrv.Close())
	must(srv.Close())
	return c
}

// drive runs E15: every profile expanded from one seed and driven
// twice in-process at the first worker count (repeat gate), once at
// every other worker count (invariance gate), and once over the wire
// (cross-path gate). Fingerprint divergence is a hard failure.
func (cfg workloadConfig) drive() []Row {
	fmt.Println("## E15: generated workloads — every scenario profile, in-process and over the wire")
	fmt.Printf("(seed %d, %d sessions, depth %d, fanout %d; version fingerprint must match across every cell of a profile)\n",
		workloadSpec.Seed, workloadSpec.Sessions, workloadSpec.Depth, workloadSpec.Fanout)
	rs := rowSet{exp: workloadExp}
	for _, profile := range cfg.profiles {
		spec := workloadSpec
		spec.Profile = profile
		w, err := workload.Generate(spec)
		must(err)
		put := func(path string, workers int, c workloadCell) {
			cell := fmt.Sprintf("%s/%s/w%d", profile, path, workers)
			rs.add(cell, "rounds", float64(w.Rounds))
			rs.addDrive(cell, c.d, c.steps)
			if c.stats != "" {
				rs.digest(cell, "stats_sha256", c.stats)
			}
			rs.digest(cell, "version_sha256", c.versions)
		}

		// Repeat gate: the first worker count runs twice and both
		// fingerprints must agree before anything else is trusted.
		ref := runWorkloadCore(w, 1)
		again := runWorkloadCore(w, 1)
		if again.versions != ref.versions || again.stats != ref.stats {
			log.Fatalf("workload %s: repeat run diverged (versions %s vs %s, stats %s vs %s)",
				profile, again.versions[:12], ref.versions[:12], again.stats[:12], ref.stats[:12])
		}
		put("core", 1, ref)
		c := runWorkloadCore(w, 4)
		if c.versions != ref.versions {
			log.Fatalf("workload %s: version map diverged at workers=4 (%s vs %s)",
				profile, c.versions[:12], ref.versions[:12])
		}
		if c.stats != ref.stats {
			log.Fatalf("workload %s: stats fingerprint diverged at workers=4 (%s vs %s)",
				profile, c.stats[:12], ref.stats[:12])
		}
		put("core", 4, c)
		wire := runWorkloadWire(w, 4)
		if wire.versions != ref.versions {
			log.Fatalf("workload %s: wire version map diverged from in-process (%s vs %s)",
				profile, wire.versions[:12], ref.versions[:12])
		}
		if wire.steps != ref.steps {
			log.Fatalf("workload %s: wire completed %d steps, in-process %d", profile, wire.steps, ref.steps)
		}
		put("wire", 4, wire)
		rs.add(profile, "best_steps_per_s", max(ref.perSec(), c.perSec()))
	}
	return rs.rows
}
