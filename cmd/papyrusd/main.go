// papyrusd serves the Papyrus design process manager over the wire: a
// multi-tenant session front-end (internal/server) exposing session
// lifecycle, TDL task submission, step status, history/ADG queries, memo
// statistics, and SDS notification subscriptions as a versioned JSON
// HTTP API, with tenants sharded across engine instances and admission
// control (per-tenant token buckets, bounded accept queue with load
// shedding, per-tenant fair queuing) in front of the worker pools.
// docs/SERVER.md is the wire-protocol reference and deployment
// quickstart; internal/client is the Go client.
//
// Usage: papyrusd [flags]
//
// Flags, in the order they matter operationally:
//
//	-addr      listen address (default :8787)
//	-shards    engine instances tenants are hashed across (default 4)
//	-nodes     simulated workstations per shard cluster (default 4)
//	-workers   task-manager worker pool per session (default 0 = auto)
//	-rate      per-tenant task admissions per second (default 0 = off)
//	-burst     per-tenant token-bucket burst (default max(1, rate))
//	-maxqueue  bound on queued task submissions before load shedding (default 256)
//	-qworkers  admission worker pool draining the fair queue (default 8)
//	-memo      arm a per-shard step-result cache (docs/CACHING.md)
//	-sweep-every  background reclaimer interval per shard (e.g. 5s; 0 = off, docs/RECLAIM.md)
//	-grace        invisibility age (store-clock ticks) before a hidden version is reclaimed
//	-sweep-budget index records scanned per sweep slice per shard (0 = whole store)
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"papyrus/internal/obs"
	"papyrus/internal/server"
)

// flagOrder is the order -h prints flags in — the operational order of
// the package doc (serving, sharding, admission), not the stock
// alphabetical listing, which leads with -burst ahead of -rate.
var flagOrder = []string{
	"addr", "shards", "nodes", "workers",
	"rate", "burst", "maxqueue", "qworkers", "memo",
	"sweep-every", "grace", "sweep-budget",
}

// usage replaces the default flag.Usage: same per-flag format, but in
// flagOrder instead of alphabetically. Flags missing from flagOrder are
// appended at the end so nothing ever drops out of -h.
func usage() {
	w := flag.CommandLine.Output()
	fmt.Fprintln(w, "usage: papyrusd [flags]")
	fmt.Fprintln(w, "\nmulti-tenant Papyrus session server; docs/SERVER.md is the wire reference.")
	fmt.Fprintln(w, "\nflags:")
	seen := make(map[string]bool, len(flagOrder))
	order := flagOrder
	for _, n := range order {
		seen[n] = true
	}
	flag.VisitAll(func(f *flag.Flag) {
		if !seen[f.Name] {
			order = append(order, f.Name)
		}
	})
	for _, name := range order {
		f := flag.Lookup(name)
		if f == nil {
			continue
		}
		u := f.Usage
		if f.DefValue != "" && f.DefValue != "false" && f.DefValue != "0" {
			u += " (default " + f.DefValue + ")"
		}
		fmt.Fprintf(w, "  -%s\n    \t%s\n", f.Name, u)
	}
}

func main() {
	var (
		addr     = flag.String("addr", ":8787", "listen address")
		shards   = flag.Int("shards", 4, "engine instances tenants are hashed across")
		nodes    = flag.Int("nodes", 4, "simulated workstations per shard cluster")
		workers  = flag.Int("workers", 0, "task-manager worker pool per session (0 = auto)")
		rate     = flag.Float64("rate", 0, "per-tenant task admissions per second (0 = unlimited)")
		burst    = flag.Float64("burst", 0, "per-tenant token-bucket burst (0 = max(1, rate))")
		maxQueue = flag.Int("maxqueue", 256, "queued task submissions before load shedding (429)")
		qworkers = flag.Int("qworkers", 8, "admission worker pool draining the fair queue")
		useMemo  = flag.Bool("memo", false, "arm a per-shard step-result cache (docs/CACHING.md)")

		sweepEvery  = flag.Duration("sweep-every", 0, "background reclaimer interval per shard (0 = off, docs/RECLAIM.md)")
		grace       = flag.Int64("grace", 0, "invisibility age in store-clock ticks before a hidden version is physically reclaimed")
		sweepBudget = flag.Int("sweep-budget", 0, "index records scanned per sweep slice per shard (0 = whole store)")
	)
	flag.Usage = usage
	flag.Parse()

	metrics := obs.NewRegistry()
	srv, err := server.New(server.Config{
		Shards:  *shards,
		Nodes:   *nodes,
		Workers: *workers,
		Memo:    *useMemo,
		Admission: server.AdmissionConfig{
			RatePerSec: *rate,
			Burst:      *burst,
			MaxQueue:   *maxQueue,
			Workers:    *qworkers,
		},
		Metrics:      metrics,
		SweepEvery:   *sweepEvery,
		ReclaimGrace: *grace,
		SweepBudget:  *sweepBudget,
	})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv}
	log.Printf("papyrusd: serving %d shards on %s (docs/SERVER.md)", *shards, ln.Addr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case sig := <-stop:
		log.Printf("papyrusd: %v — draining", sig)
	case err := <-errc:
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("papyrusd: shutdown: %v", err)
	}
	if err := srv.Close(); err != nil {
		log.Printf("papyrusd: close: %v", err)
	}
	fmt.Fprintln(os.Stderr, "papyrusd: stopped")
}
