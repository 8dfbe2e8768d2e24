package main

// serve.go is E13: the served-system load generator. It boots a papyrusd
// server (internal/server) in-process on a loopback listener and drives
// N concurrent designer sessions through the wire path with
// internal/client — open session, import seed objects, submit a TDL
// task through admission control, read back history, close — measuring
// wire latency (p50/p99 per request class) and sustained engine
// throughput (steps/sec). The workload is seeded and per-session
// namespaced, so the per-shard version maps it leaves behind are
// byte-identical across runs; wall-clock latency is the one
// host-dependent column (EXPERIMENTS.md E13, like E11).

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"papyrus/internal/client"
	"papyrus/internal/obs"
	"papyrus/internal/server"
)

// serveConfig fixes the cells of one E13 run: sessions spread over 16
// tenants and 4 engine shards, 8 admission workers, and a queue of 1024
// before load shedding.
type serveConfig struct {
	sessions    int
	rate, burst float64 // per-tenant token bucket; rate 0 = unlimited
}

const serveShards, serveTenants = 4, 16

// Cell "run" is the whole drive: engine steps completed through the
// wire, the admission rejections clients retried through, and the
// per-shard version-map fingerprint. Cells open, import, task, history,
// close and all are request classes with client-side wire latency; the
// task class covers the full path (admission queue, engine, encode).
var serveExp = &experiment{
	title: "E13 serve: wire-path load",
	metrics: []metric{
		{"steps", "1"}, {"wall_ms", "ms"}, {"steps_per_s", "1/s"},
		{"allocs_per_step", "1"}, {"bytes_per_step", "B"},
		{"throttled", "1"}, {"shed", "1"}, {"retries", "1"},
		{"p50_ms", "ms"}, {"p99_ms", "ms"}, {"count", "1"},
		{"version_sha256", "sha256"},
	},
}

var serveClasses = []string{"open", "import", "task", "history", "close", "all"}

// drive runs E13. Latency is measured client-side around each wire
// call and recorded in microsecond histograms; quantiles come from
// obs.HistogramSnapshot.Quantile.
func (cfg serveConfig) drive() []Row {
	fmt.Println("## E13: served-system load — concurrent designer sessions through the papyrusd wire path")
	fmt.Printf("(%d sessions over %d tenants, %d shards, %d admission workers; latency is wall-clock, fingerprint is deterministic)\n",
		cfg.sessions, serveTenants, serveShards, 8)

	reg := obs.NewRegistry()
	srv, err := server.New(server.Config{
		Shards:           serveShards,
		Nodes:            4,
		DisableInference: true,
		ExtraTemplates:   map[string]string{"Fanout4": fanoutTemplate},
		Admission: server.AdmissionConfig{
			RatePerSec: cfg.rate,
			Burst:      cfg.burst,
			MaxQueue:   1024,
			Workers:    8,
		},
		Metrics: reg,
	})
	must(err)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	must(err)
	httpSrv := &http.Server{Handler: srv}
	go func() { _ = httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	// Client-side latency histograms, microseconds.
	lat := obs.NewRegistry()
	usBuckets := []int64{100, 200, 400, 800, 1600, 3200, 6400, 12800, 25600, 51200,
		102400, 204800, 409600, 819200, 1638400, 3276800, 6553600, 13107200, 26214400}
	for _, c := range serveClasses {
		lat.SetBuckets("e13."+c+".us", usBuckets)
	}
	var retries int64
	var retriesMu sync.Mutex
	timed := func(name string, f func() error) error {
		start := time.Now()
		err := f()
		us := time.Since(start).Microseconds()
		lat.Observe(name, us)
		lat.Observe("e13.all.us", us)
		return err
	}

	errs := make([]error, cfg.sessions)
	d, err := measure(func() error {
		var wg sync.WaitGroup
		for i := 0; i < cfg.sessions; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				cl := client.New(base)
				// The load generator must finish every session even under
				// the serve-throttled rate limit: give throttled submits a
				// deep retry budget with a trimmed backoff.
				cl.RetryBudget = 100
				cl.Backoff = func(hint time.Duration) {
					retriesMu.Lock()
					retries++
					retriesMu.Unlock()
					time.Sleep(hint / 4) // trimmed backoff keeps the drive moving
				}
				tenant := fmt.Sprintf("t%02d", i%serveTenants)
				ns := fmt.Sprintf("/e13/%s/s%d", tenant, i)
				var info server.SessionInfo
				run := func() error {
					if err := timed("e13.open.us", func() error {
						var err error
						info, err = cl.OpenSession(tenant, fmt.Sprintf("e13-%d", i))
						return err
					}); err != nil {
						return err
					}
					inputs := map[string]string{}
					for _, n := range []string{"A", "B", "C", "D"} {
						name := ns + "/" + strings.ToLower(n)
						if err := timed("e13.import.us", func() error {
							_, err := cl.Import(info.ID, server.ImportRequest{Name: name, Kind: "shifter", Width: 4})
							return err
						}); err != nil {
							return err
						}
						inputs[n] = name
					}
					var steps int
					if err := timed("e13.task.us", func() error {
						rec, err := cl.SubmitTask(info.ID, server.TaskRequest{
							Task:   "Fanout4",
							Inputs: inputs,
							Outputs: map[string]string{
								"O1": ns + "/o1", "O2": ns + "/o2", "O3": ns + "/o3", "O4": ns + "/o4",
							},
						})
						if err != nil {
							return err
						}
						steps = len(rec.Steps)
						return nil
					}); err != nil {
						return err
					}
					if steps != 4 {
						return fmt.Errorf("%d steps recorded, want 4", steps)
					}
					if err := timed("e13.history.us", func() error {
						recs, err := cl.History(info.ID)
						if err != nil {
							return err
						}
						if len(recs) != 1 {
							return fmt.Errorf("%d history records, want 1", len(recs))
						}
						return nil
					}); err != nil {
						return err
					}
					return timed("e13.close.us", func() error { return cl.CloseSession(info.ID) })
				}
				if err := run(); err != nil {
					errs[i] = fmt.Errorf("session %d: %w", i, err)
				}
			}(i)
		}
		wg.Wait()
		return errors.Join(errs...)
	})
	if err != nil {
		log.Fatalf("serve: %v", err)
	}

	// Fingerprint the per-shard version maps, shard order.
	var fp strings.Builder
	for i := 0; i < serveShards; i++ {
		fmt.Fprintf(&fp, "shard %d\n%s", i, srv.ShardSystem(i).Store.VersionMapText())
	}
	must(httpSrv.Close())
	must(srv.Close())

	steps := reg.Counter("task.step.complete")
	if want := int64(cfg.sessions) * 4; steps != want {
		log.Fatalf("serve: %d steps completed, want %d (every session must run its 4-step task)", steps, want)
	}
	rs := rowSet{exp: serveExp}
	rs.addDrive("run", d, steps)
	rs.add("run", "throttled", float64(reg.Counter("server.admit.throttle")))
	rs.add("run", "shed", float64(reg.Counter("server.admit.shed")))
	rs.add("run", "retries", float64(retries))
	rs.digest("run", "version_sha256", fmt.Sprintf("%x", sha256.Sum256([]byte(fp.String()))))
	snap := lat.Snapshot()
	for _, c := range serveClasses {
		h := snap.Histograms["e13."+c+".us"]
		rs.add(c, "p50_ms", float64(h.Quantile(0.50))/1000)
		rs.add(c, "p99_ms", float64(h.Quantile(0.99))/1000)
		rs.add(c, "count", float64(h.Count))
	}
	return rs.rows
}
