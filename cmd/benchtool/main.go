// benchtool regenerates the quantitative experiment tables recorded in
// EXPERIMENTS.md. All numbers are deterministic: workloads are seeded and
// execution time is the simulated cluster's virtual clock, so the tables
// reproduce bit-for-bit across runs and machines.
//
// Usage: benchtool [-exp all|speedup|remigration|scopecache|storage|rework|viewport|inference|abort|rebuild|faults|scale|replay|serve|workload|reclaim]
//
// The scale (E11), serve (E13), workload (E15) and reclaim (E17)
// experiments are the exceptions to pure virtual-time measurement: scale
// reports wall-clock throughput of the concurrent engine (steps/sec vs
// worker count at N sessions), serve reports wire latency and throughput
// of the papyrusd front-end under concurrent designer sessions, workload
// drives every generated scenario profile through both paths, and
// reclaim soaks deep rework under incremental reclamation, so none is
// part of -exp all. Their correctness columns — the stats and version-map
// fingerprints — are still bit-reproducible.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"papyrus/internal/activity"
	"papyrus/internal/attr"
	"papyrus/internal/baseline"
	"papyrus/internal/cad"
	"papyrus/internal/cad/logic"
	"papyrus/internal/core"
	"papyrus/internal/fault"
	"papyrus/internal/history"
	"papyrus/internal/infer"
	"papyrus/internal/memo"
	"papyrus/internal/obs"
	"papyrus/internal/oct"
	"papyrus/internal/reclaim"
	"papyrus/internal/sprite"
	"papyrus/internal/task"
	"papyrus/internal/templates"
	"papyrus/internal/viewport"
	"papyrus/internal/workload"
)

// fanoutTemplate is the E11 unit of work, now drawn from the workload
// generator; templates_test.go pins it byte-identical to the hand-written
// template every historical fingerprint was produced with.
var fanoutTemplate = workload.FanTemplate("Fanout4", 4)

// benchMetrics aggregates makespan observations across every experiment
// run in the process (bench.<case>.ticks histograms); -stats prints it.
// benchTracer is non-nil only under -trace and collects the typed event
// stream of every simulated system the experiments build.
var (
	benchMetrics = obs.NewRegistry()
	benchTracer  *obs.Tracer
	// benchFaults optionally replaces the last fault plan of the recovery
	// experiment (the -faults flag).
	benchFaults string
	// benchMem turns on per-cell allocation accounting (-benchmem):
	// runtime.MemStats deltas around each scale cell, reported as
	// allocs/step and bytes/step columns.
	benchMem bool
	// summaryPath is the -summary file: experiments append GitHub-flavored
	// markdown tables to it (CI points this at $GITHUB_STEP_SUMMARY).
	summaryPath string
	// benchGateErrs collects threshold-gate violations. Gates record here
	// via gateFail instead of exiting on the spot so the deferred profile,
	// trace and summary writers flush first; main exits non-zero at the
	// very end if any gate tripped. Correctness failures (fingerprint
	// divergence, lost steps) still log.Fatal immediately — a wrong answer
	// has no profile worth keeping.
	benchGateErrs []string
)

// gateFail records a perf-gate violation and keeps going.
func gateFail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	log.Print(msg)
	benchGateErrs = append(benchGateErrs, msg)
}

// appendSummary appends one markdown section to the -summary file.
func appendSummary(section string) {
	if summaryPath == "" {
		return
	}
	f, err := os.OpenFile(summaryPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	must(err)
	_, err = f.WriteString(section)
	must(err)
	must(f.Close())
}

// measureVT records a system's final virtual clock under
// bench.<name>.ticks and returns it — the single timing path for
// experiment tables, replacing per-experiment Cluster.Now() bookkeeping.
func measureVT(name string, now int64) int64 {
	benchMetrics.Observe("bench."+name+".ticks", now)
	return now
}

// flagOrder is the order -h prints flags in: general switches first, then
// one block per experiment that takes flags (scale/E11, replay/E12,
// serve/E13). The stock alphabetical listing interleaved the blocks and
// stranded -memo between the replay switches.
var flagOrder = []string{
	"exp", "stats", "trace", "faults",
	"cpuprofile", "memprofile", "benchmem", "summary",
	"scalesessions", "scaleworkers", "scalelatency", "scalemin",
	"scaleregress", "allocmax",
	"scaleout", "scalewal", "scalefsync", "memo",
	"replayworkers", "replaymin", "replayout",
	"servesessions", "serveshards", "serveworkers", "servetenants",
	"serverate", "serveburst", "servequeue", "servemin", "servep99",
	"serveout",
	"wlprofiles", "wlseed", "wlsessions", "wldepth", "wlfanout",
	"wlworkers", "wlmin", "wlout",
	"rcseed", "rcsessions", "rcdepth", "rcfanout",
	"rcworkers", "rcsweep", "rcbudget", "rcgrowth", "rcmaxratio", "rcout",
}

// usage replaces the default flag.Usage: same per-flag format, but in
// flagOrder instead of alphabetically. Flags missing from flagOrder are
// appended at the end so nothing ever drops out of -h.
func usage() {
	w := flag.CommandLine.Output()
	fmt.Fprintln(w, "usage: benchtool [-exp all|speedup|remigration|scopecache|storage|rework|viewport|inference|abort|rebuild|faults|scale|replay|serve|workload|reclaim] [flags]")
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
	exp := flag.String("exp", "all", "experiment to run")
	stats := flag.Bool("stats", false, "print the aggregated metrics registry after the experiments")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON file covering all runs")
	faults := flag.String("faults", "", "extra fault plan for the recovery experiment, e.g. seed=3,crash=2@60-500 (docs/FAULTS.md)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (post-GC) to this file at exit")
	flag.BoolVar(&benchMem, "benchmem", false, "measure allocations per scale cell (allocs/step, bytes/step columns)")
	flag.StringVar(&summaryPath, "summary", "", "append markdown result tables to this file (CI: $GITHUB_STEP_SUMMARY)")
	flag.StringVar(&scaleSessions, "scalesessions", "1,8,64", "comma-separated session counts for -exp scale")
	flag.StringVar(&scaleWorkers, "scaleworkers", "1,2,4,8", "comma-separated worker counts for -exp scale")
	flag.DurationVar(&scaleLatency, "scalelatency", 2*time.Millisecond, "injected wall-clock latency per tool body for -exp scale")
	flag.Float64Var(&scaleMin, "scalemin", 0, "fail (exit 1) if max-worker throughput is below this multiple of the 1-worker run at the largest session count")
	flag.Float64Var(&scaleRegress, "scaleregress", 0, "fail (exit 1) if any session count's max-worker throughput drops below this multiple of its best lower-worker cell (monotonicity gate)")
	flag.Float64Var(&scaleAllocMax, "allocmax", 0, "fail (exit 1) if the largest scale cell allocates more than this many heap objects per step (implies -benchmem)")
	flag.StringVar(&scaleOut, "scaleout", "BENCH_scale.json", "output file for the -exp scale table")
	flag.BoolVar(&scaleWAL, "scalewal", false, "run -exp scale with write-ahead logging enabled (fresh log dir per cell); fingerprints must still match")
	flag.Int64Var(&scaleFsync, "scalefsync", 1, "group-commit flush interval for -scalewal (<=1 fsyncs every append)")
	flag.BoolVar(&scaleMemo, "memo", false, "run -exp scale with the step-result cache enabled (fresh cache per cell); fingerprints must still match")
	flag.StringVar(&replayWorkers, "replayworkers", "1,8", "comma-separated worker counts for -exp replay")
	flag.Float64Var(&replayMin, "replaymin", 0, "fail (exit 1) if the memo-on replay speedup at the largest worker count is below this")
	flag.StringVar(&replayOut, "replayout", "BENCH_replay.json", "output file for the -exp replay table")
	flag.IntVar(&serveSessions, "servesessions", 256, "concurrent designer sessions for -exp serve")
	flag.IntVar(&serveShards, "serveshards", 4, "engine shards for -exp serve")
	flag.IntVar(&serveWorkers, "serveworkers", 8, "admission worker pool for -exp serve")
	flag.IntVar(&serveTenants, "servetenants", 16, "distinct tenants sessions are spread over for -exp serve")
	flag.Float64Var(&serveRate, "serverate", 0, "per-tenant admission rate limit for -exp serve (0 = unlimited)")
	flag.Float64Var(&serveBurst, "serveburst", 0, "per-tenant token-bucket burst for -exp serve (0 = max(1, rate))")
	flag.IntVar(&serveQueue, "servequeue", 1024, "admission queue bound before load shedding for -exp serve")
	flag.Float64Var(&serveMin, "servemin", 0, "fail (exit 1) if -exp serve sustains fewer steps/sec than this")
	flag.Float64Var(&serveP99, "servep99", 0, "fail (exit 1) if -exp serve task-submission p99 exceeds this many ms")
	flag.StringVar(&serveOut, "serveout", "BENCH_serve.json", "output file for the -exp serve table")
	flag.StringVar(&wlProfiles, "wlprofiles", "all", "comma-separated workload profiles for -exp workload (all = every profile)")
	flag.Int64Var(&wlSeed, "wlseed", 7, "workload generator seed for -exp workload")
	flag.IntVar(&wlSessions, "wlsessions", 4, "designer sessions per profile for -exp workload")
	flag.IntVar(&wlDepth, "wldepth", 6, "depth knob (rounds, chain length) for -exp workload")
	flag.IntVar(&wlFanout, "wlfanout", 4, "fanout knob (burst width, fan arity) for -exp workload")
	flag.StringVar(&wlWorkers, "wlworkers", "1,4", "comma-separated worker counts for -exp workload (fingerprints must be invariant)")
	flag.Float64Var(&wlMin, "wlmin", 0, "fail (exit 1) if any profile's best in-process cell is below this many steps/sec")
	flag.StringVar(&wlOut, "wlout", "BENCH_workload.json", "output file for the -exp workload table")
	flag.Int64Var(&rcSeed, "rcseed", 7, "workload generator seed for -exp reclaim")
	flag.IntVar(&rcSessions, "rcsessions", 4, "designer sessions for the -exp reclaim soak")
	flag.IntVar(&rcDepth, "rcdepth", 64, "rework depth (rounds = depth/8) for -exp reclaim")
	flag.IntVar(&rcFanout, "rcfanout", 4, "fanout knob for -exp reclaim")
	flag.IntVar(&rcWorkers, "rcworkers", 4, "worker-pool size for -exp reclaim cells")
	flag.IntVar(&rcSweep, "rcsweep", 1, "sweep at every Nth round barrier for -exp reclaim")
	flag.IntVar(&rcBudget, "rcbudget", 0, "index records scanned per sweep slice for -exp reclaim (0 = whole store)")
	flag.Float64Var(&rcGrowth, "rcgrowth", 0, "fail (exit 1) if the second-half peak live/written ratio exceeds the first-half peak by this factor (0 = off; needs -rcdepth >= 128)")
	flag.Float64Var(&rcMaxRatio, "rcmaxratio", 0, "fail (exit 1) if the final live/written ratio exceeds this ceiling (0 = off)")
	flag.StringVar(&rcOut, "rcout", "BENCH_reclaim.json", "output file for the -exp reclaim table")
	flag.Usage = usage
	flag.Parse()
	benchFaults = *faults
	if scaleAllocMax > 0 {
		benchMem = true
	}
	if *tracePath != "" {
		benchTracer = obs.NewTracer()
	}
	// Registered first so it runs LAST: every writer below (profiles,
	// trace, stats, summaries) must flush before a tripped gate exits.
	defer func() {
		if len(benchGateErrs) > 0 {
			log.Printf("benchtool: %d perf gate(s) failed", len(benchGateErrs))
			os.Exit(1)
		}
	}()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		must(err)
		must(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			must(f.Close())
			fmt.Printf("cpu profile written to %s\n", *cpuProfile)
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			must(err)
			runtime.GC() // settle the heap so the profile shows live objects
			must(pprof.WriteHeapProfile(f))
			must(f.Close())
			fmt.Printf("heap profile written to %s\n", *memProfile)
		}()
	}
	defer func() {
		if benchTracer != nil {
			f, err := os.Create(*tracePath)
			must(err)
			must(benchTracer.WriteChromeTrace(f))
			must(f.Close())
			fmt.Printf("trace: %d events written to %s\n", benchTracer.Len(), *tracePath)
		}
		if *stats {
			fmt.Println()
			must(benchMetrics.WriteText(os.Stdout))
		}
	}()
	run := map[string]func(){
		"speedup":     expSpeedup,
		"remigration": expReMigration,
		"scopecache":  expScopeCache,
		"storage":     expStorage,
		"rework":      expRework,
		"viewport":    expViewport,
		"inference":   expInference,
		"abort":       expAbort,
		"rebuild":     expRebuild,
		"faults":      expFaults,
		"scale":       expScale,
		"replay":      expReplay,
		"serve":       expServe,
		"workload":    expWorkload,
		"reclaim":     expReclaim,
	}
	if *exp == "all" {
		for _, name := range []string{"speedup", "remigration", "scopecache", "storage", "rework", "viewport", "inference", "abort", "rebuild", "faults", "replay"} {
			run[name]()
			fmt.Println()
		}
		return
	}
	f, ok := run[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	f()
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func newSystem(cfg core.Config) *core.System {
	cfg.Metrics = benchMetrics
	cfg.Trace = benchTracer
	sys, err := core.New(cfg)
	must(err)
	return sys
}

// --- Experiment: parallel speedup (Figs 4.2/4.3) ----------------------

func expSpeedup() {
	fmt.Println("## E1: task speedup vs cluster size (Figs 4.2/4.3, §4.3.2)")
	fmt.Println("nodes | Fanout4 ticks | speedup | Structure_Synthesis ticks | speedup | Mosaico ticks | speedup")

	runTask := func(nodes int, taskName string, inputs, outputs map[string]string, seed func(*core.System)) int64 {
		sys := newSystem(core.Config{Nodes: nodes, ReMigrateEvery: 25,
			ExtraTemplates: map[string]string{"Fanout4": fanoutTemplate}})
		seed(sys)
		th := sys.NewThread("bench", "u")
		_, err := sys.Invoke(th, taskName, inputs, outputs)
		must(err)
		return measureVT(fmt.Sprintf("speedup.%s.n%d", taskName, nodes), sys.Cluster.Now())
	}
	seedFan := func(sys *core.System) {
		for _, n := range []string{"a", "b", "c", "d"} {
			_, err := sys.ImportObject("/"+n, oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(4)))
			must(err)
		}
	}
	seedSS := func(sys *core.System) {
		_, err := sys.ImportObject("/s", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(4)))
		must(err)
		_, err = sys.ImportObject("/c", oct.TypeText, oct.Text("set d0 1\nsim\nexpect q0 1\n"))
		must(err)
	}
	seedMo := func(sys *core.System) {
		_, err := sys.ImportObject("/m", oct.TypeBehavioral,
			oct.Text(logic.GenBehavior(logic.GenConfig{Seed: 7, Inputs: 6, Outputs: 4, Depth: 4})))
		must(err)
	}

	var base [3]int64
	for _, n := range []int{1, 2, 4, 8} {
		tf := runTask(n, "Fanout4",
			map[string]string{"A": "/a", "B": "/b", "C": "/c", "D": "/d"},
			map[string]string{"O1": "o1", "O2": "o2", "O3": "o3", "O4": "o4"}, seedFan)
		ts := runTask(n, "Structure_Synthesis",
			map[string]string{"Incell": "/s", "Musa_Command": "/c"},
			map[string]string{"Outcell": "out", "Cell_Statistics": "st"}, seedSS)
		tm := runTask(n, "Mosaico",
			map[string]string{"Incell": "/m"},
			map[string]string{"Outcell": "out", "Cell_statistics": "st"}, seedMo)
		if n == 1 {
			base = [3]int64{tf, ts, tm}
		}
		fmt.Printf("%5d | %13d | %7.2f | %25d | %7.2f | %13d | %7.2f\n",
			n, tf, ratio(base[0], tf), ts, ratio(base[1], ts), tm, ratio(base[2], tm))
	}
}

func ratio(base, now int64) float64 { return float64(base) / float64(now) }

// --- Experiment: re-migration (§4.3.3) ---------------------------------

func expReMigration() {
	fmt.Println("## E2: eviction and re-migration (§4.3.3)")
	fmt.Println("re-migration | makespan (ticks) | total migrations")
	runCase := func(remigrate bool) (int64, int) {
		cluster, err := sprite.NewCluster(sprite.Config{Nodes: 4, MigrationDelay: 2,
			Metrics: benchMetrics, Tracer: benchTracer})
		must(err)
		// Nodes 1-3 are owned; owners are active until t=60, return
		// again during [400, 500).
		for n := 1; n <= 3; n++ {
			cluster.ScheduleOwnerActivity(sprite.NodeID(n), 0, 60)
			cluster.ScheduleOwnerActivity(sprite.NodeID(n), 400, 500)
		}
		store := oct.NewStore()
		cfg := task.Config{
			Suite: cad.NewSuite(), Store: store, Cluster: cluster,
			Templates: templates.Source(map[string]string{"Fanout4": fanoutTemplate}),
			Metrics:   benchMetrics, Tracer: benchTracer,
		}
		if remigrate {
			cfg.ReMigrateEvery = 20
		}
		mgr, err := task.New(cfg)
		must(err)
		inputs := map[string]oct.Ref{}
		for _, n := range []string{"A", "B", "C", "D"} {
			obj, err := store.Put(n, oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(5)), "seed")
			must(err)
			inputs[n] = oct.Ref{Name: obj.Name, Version: obj.Version}
		}
		rec, err := mgr.RunTask(task.Invocation{
			Task: "Fanout4", Inputs: inputs,
			Outputs: map[string]string{"O1": "o1", "O2": "o2", "O3": "o3", "O4": "o4"},
		})
		must(err)
		migrations := 0
		for _, s := range rec.Steps {
			migrations += s.Migrations
		}
		return measureVT(fmt.Sprintf("remigration.re=%v", remigrate), cluster.Now()), migrations
	}
	for _, re := range []bool{false, true} {
		t, m := runCase(re)
		fmt.Printf("%12v | %16d | %16d\n", re, t, m)
	}
}

// --- Experiment: data-scope caching (§5.3) ------------------------------

func expScopeCache() {
	fmt.Println("## E3: data-scope computation, cached vs uncached thread states (§5.3)")
	fmt.Println("history depth | records visited (no cache) | records visited (cache at midpoint)")
	for _, depth := range []int{50, 200, 800} {
		s := history.NewStream()
		var prev *history.Record
		var recs []*history.Record
		for i := 0; i < depth; i++ {
			r := &history.Record{TaskName: "t", Time: int64(i),
				Outputs: []oct.Ref{{Name: fmt.Sprintf("o%d", i), Version: 1}}}
			s.Append(r, prev)
			prev = r
			recs = append(recs, r)
		}
		tip := recs[depth-1]
		_, uncached := s.ThreadState(tip)
		s.CacheState(recs[depth/2])
		_, cached := s.ThreadState(tip)
		fmt.Printf("%13d | %27d | %36d\n", depth, uncached, cached)
	}
}

// --- Experiment: storage reclamation (§5.4, Figs 5.7-5.9) ---------------

func expStorage() {
	fmt.Println("## E4: single-assignment storage vs reclamation (§5.4, Fig 5.9)")
	fmt.Println("iterations | bytes (no reclamation) | bytes (iteration GC + sweep) | versions before | versions after")
	for _, rounds := range []int{4, 8, 16} {
		build := func() (*core.System, *activity.Thread, [][]*history.Record) {
			sys := newSystem(core.Config{Nodes: 2})
			_, err := sys.ImportObject("/spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(3)))
			must(err)
			_, err = sys.ImportObject("/cmd", oct.TypeText, oct.Text("set d0 1\nsim\n"))
			must(err)
			th := sys.NewThread("iter", "u")
			_, err = sys.Invoke(th, "create-logic-description",
				map[string]string{"Spec": "/spec"}, map[string]string{"Outlogic": "l"})
			must(err)
			var rr [][]*history.Record
			for i := 0; i < rounds; i++ {
				rec, err := sys.Invoke(th, "logic-simulator",
					map[string]string{"Inlogic": "l", "Commands": "/cmd"},
					map[string]string{"Report": "rep"})
				must(err)
				rr = append(rr, []*history.Record{rec})
			}
			return sys, th, rr
		}
		sysA, _, _ := build()
		without := sysA.Store.TotalBytes()

		sysB, th, rr := build()
		before := sysB.Store.ObjectCount()
		r := reclaim.New(sysB.Store, reclaim.Policy{Grace: 0})
		_, err := r.CollectIterations(th, reclaim.IterationHint{Rounds: rr})
		must(err)
		_, err = r.SweepObjects()
		must(err)
		with := sysB.Store.TotalBytes()
		after := sysB.Store.ObjectCount()
		fmt.Printf("%10d | %22d | %28d | %15d | %14d\n", rounds, without, with, before, after)
	}
}

// --- Experiment: rework vs retracing (§2.2.2 vs §3.3.3) ----------------

func expRework() {
	fmt.Println("## E5: exploring an alternative — Papyrus rework vs VOV retracing")
	fmt.Println("chain length | VOV tool re-runs after modify | Papyrus tool runs after rework (cursor move)")
	for _, chain := range []int{2, 4, 8} {
		// VOV: build a chain spec -> net -> o1 -> ... -> oN, then modify
		// the spec: everything downstream re-executes.
		suite := cad.NewSuite()
		store := oct.NewStore()
		vov := baseline.NewVOV(suite, store)
		spec, err := store.Put("spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(3)), "designer")
		must(err)
		vov.Checkin("spec", spec)
		must(vov.Run("bdsyn", nil, []string{"spec"}, []string{"net"}))
		prev := "net"
		for i := 0; i < chain; i++ {
			out := fmt.Sprintf("o%d", i)
			must(vov.Run("misII", nil, []string{prev}, []string{out}))
			prev = out
		}
		spec2, err := store.Put("spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(4)), "designer")
		must(err)
		reruns, err := vov.Modify("spec", spec2)
		must(err)

		// Papyrus: the same chain as history; "trying the alternative"
		// is a cursor move — zero tool executions; the new branch runs
		// only the tools the designer invokes next.
		sys := newSystem(core.Config{Nodes: 2})
		_, err = sys.ImportObject("/spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(3)))
		must(err)
		th := sys.NewThread("t", "u")
		_, err = sys.Invoke(th, "create-logic-description",
			map[string]string{"Spec": "/spec"}, map[string]string{"Outlogic": "net"})
		must(err)
		recs := th.SortedRecords()
		must(th.MoveCursor(recs[0]))
		fmt.Printf("%12d | %29d | %44d\n", chain+1, reruns, 0)
	}
}

// --- Experiment: lazy viewport transforms (§5.2) ------------------------

func expViewport() {
	fmt.Println("## E6: pan/zoom maintenance — lazy compressed transform vs eager rewrite (§5.2)")
	fmt.Println("records | gestures | coordinate updates (eager) | coordinate updates (lazy)")
	for _, n := range []int{100, 1000, 10000} {
		gestures := 50
		// Eager rewrites every item's coordinates on each gesture.
		eagerUpdates := n * gestures
		// Lazy maintains one compressed transform.
		lazyUpdates := gestures
		// Verify both agree on a sample point before reporting.
		lv := viewport.NewView()
		ev := viewport.NewEagerView()
		for i := 0; i < n; i++ {
			p := viewport.Point{X: float64(i % 37), Y: float64(i / 37)}
			lv.Add(i, p)
			ev.Add(i, p)
		}
		for g := 0; g < gestures; g++ {
			if g%3 == 0 {
				lv.Zoom(2)
				ev.Zoom(2)
			} else {
				lv.Pan(5, -3)
				ev.Pan(5, -3)
			}
			if g%2 == 1 {
				lv.Zoom(0.5)
				ev.Zoom(0.5)
			}
		}
		lp, _ := lv.Position(n / 2)
		ep, _ := ev.Position(n / 2)
		if lp != ep {
			log.Fatalf("viewport divergence: %+v vs %+v", lp, ep)
		}
		fmt.Printf("%7d | %8d | %26d | %25d\n", n, gestures, eagerUpdates, lazyUpdates)
	}
}

// --- Experiment: incremental metadata inference (§6.4.1) ----------------

func expInference() {
	fmt.Println("## E7: propagated-attribute evaluation — incremental vs full (Fig 6.5, §6.4.1)")
	fmt.Println("hierarchy leaves | leaf evaluations after 1 leaf update (incremental) | (full re-evaluation)")
	for _, leaves := range []int{16, 64, 256} {
		count := 0
		adb := attr.New(func(a string, obj *oct.Object) (string, error) {
			count++
			return "1", nil
		})
		suite := cad.NewSuite()
		store := oct.NewStore()
		eng := infer.NewEngine(suite, store, adb)
		// A binary configuration tree over `leaves` leaf cells.
		var build func(lo, hi int) oct.Ref
		id := 0
		build = func(lo, hi int) oct.Ref {
			id++
			name := fmt.Sprintf("n%d", id)
			ref := oct.Ref{Name: name, Version: 1}
			if hi-lo == 1 {
				adb.Set(ref, "power", "3", "")
				return ref
			}
			mid := (lo + hi) / 2
			l := build(lo, mid)
			r := build(mid, hi)
			eng.AddConfiguration(l, ref, "compose")
			eng.AddConfiguration(r, ref, "compose")
			return ref
		}
		root := build(0, leaves)
		_, err := eng.PropagatedAttr(root, "power")
		must(err)

		// Update one leaf: incremental invalidation re-evaluates only the
		// path to the root. Count composite evaluations by instrumenting
		// with a fresh counter pass.
		leaf := oct.Ref{Name: "n2", Version: 1} // leftmost descent
		// Find an actual leaf: walk down the left spine.
		cur := root
		for {
			comps := eng.RelatedBy(infer.RelConfiguration, cur)
			if len(comps) == 0 {
				leaf = cur
				break
			}
			cur = comps[0]
		}
		adb.Set(leaf, "power", "5", "")
		incr := countCompositeEvals(eng, root, leaf, false)
		full := countCompositeEvals(eng, root, leaf, true)
		fmt.Printf("%16d | %50d | %20d\n", leaves, incr, full)
	}
}

// countCompositeEvals measures how many composite nodes get recomputed
// after invalidation: incremental invalidates the leaf's ancestor path,
// full invalidates everything.
func countCompositeEvals(eng *infer.Engine, root, leaf oct.Ref, full bool) int {
	if full {
		eng.InvalidateAll()
	} else {
		eng.AddConfiguration(leaf, parentOf(eng, leaf), "compose") // re-link triggers invalidateUp
	}
	return eng.CountedPropagate(root, "power")
}

func parentOf(eng *infer.Engine, child oct.Ref) oct.Ref {
	for _, r := range eng.Relationships(child) {
		if r.Kind == infer.RelConfiguration && r.From == child {
			return r.To
		}
	}
	return child
}

// --- Experiment: programmable abort (Fig 3.4, §4.3.4) -------------------

func expAbort() {
	fmt.Println("## E8: programmable abort — work preserved by resumed task states (Fig 3.4)")
	fmt.Println("abort policy | tool executions to finish after one failure")
	runCase := func(resumed string) int {
		execs := 0
		sys := newSystem(core.Config{Nodes: 2, ExtraTemplates: map[string]string{
			"Frag": fmt.Sprintf(`task Frag {A} {Out}
step {1 Build} {A} {m1} {bdsyn -o m1 A}
step {2 Optimize} {m1} {m2} {misII -o m2 m1}
step {3 Finish} {m2} {Out} {flaky -o Out m2} {ResumedStep %s}
`, resumed),
		}})
		attempts := 0
		sys.Suite.Register(&cad.Tool{
			Name: "flaky", Brief: "fails once", Man: "test tool",
			TSD:  cad.TSD{Writes: oct.TypeLogic},
			Cost: func(in []*oct.Object, o []string) float64 { return 10 },
			Run: func(ctx *cad.Ctx) error {
				attempts++
				if attempts == 1 {
					return fmt.Errorf("transient failure")
				}
				return ctx.PutOutput(0, oct.TypeLogic, ctx.Inputs[0].Data)
			},
		})
		// Count executions of every tool by wrapping the suite's bdsyn/misII.
		for _, name := range []string{"bdsyn", "misII"} {
			orig, _ := sys.Suite.Tool(name)
			origRun := orig.Run
			tool := *orig
			tool.Run = func(ctx *cad.Ctx) error {
				execs++
				return origRun(ctx)
			}
			sys.Suite.Register(&tool)
		}
		_, err := sys.ImportObject("/a", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(3)))
		must(err)
		th := sys.NewThread("t", "u")
		_, err = sys.Invoke(th, "Frag",
			map[string]string{"A": "/a"}, map[string]string{"Out": "out"})
		must(err)
		return execs + attempts
	}
	fmt.Printf("%12s | %d\n", "ResumedStep 2", runCase("2"))
	fmt.Printf("%12s | %d\n", "ResumedStep 0", runCase("0"))
}

// --- Experiment: demand-driven rebuild vs retracing (§1.4 extension) ----

func expRebuild() {
	fmt.Println("## E9: source edit on a fan-out DAG — demand-driven rebuild vs VOV retracing")
	fmt.Println("derived objects | VOV retrace tool re-runs | Papyrus Rebuild(one target) tool re-runs")
	for _, fanout := range []int{2, 4, 8} {
		// Shared shape: spec -> net, then `fanout` independent misII
		// derivatives of net. Editing spec invalidates everything; the
		// designer only needs one derivative refreshed.
		suite := cad.NewSuite()
		store := oct.NewStore()
		vov := baseline.NewVOV(suite, store)
		spec, err := store.Put("spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(3)), "d")
		must(err)
		vov.Checkin("spec", spec)
		must(vov.Run("bdsyn", nil, []string{"spec"}, []string{"net"}))
		for i := 0; i < fanout; i++ {
			must(vov.Run("misII", nil, []string{"net"}, []string{fmt.Sprintf("d%d", i)}))
		}
		spec2, err := store.Put("spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(4)), "d")
		must(err)
		retrace, err := vov.Modify("spec", spec2)
		must(err)

		// Papyrus: same DAG recorded by the inference engine; rebuild
		// exactly one derivative.
		sys := newSystem(core.Config{Nodes: 2, ExtraTemplates: map[string]string{
			"Fan": fanTemplate(fanout),
		}})
		_, err = sys.ImportObject("/spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(3)))
		must(err)
		th := sys.NewThread("t", "u")
		outputs := map[string]string{}
		for i := 0; i < fanout; i++ {
			outputs[fmt.Sprintf("D%d", i)] = fmt.Sprintf("d%d", i)
		}
		_, err = sys.Invoke(th, "Fan", map[string]string{"A": "/spec"}, outputs)
		must(err)
		_, err = sys.ImportObject("/spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(4)))
		must(err)
		target, err := th.ResolveInput("d0")
		must(err)
		before := sys.Store.ObjectCount()
		_, err = sys.Rebuild(target)
		must(err)
		rebuilt := sys.Store.ObjectCount() - before // new versions == tool runs here
		fmt.Printf("%15d | %24d | %41d\n", fanout+1, retrace, rebuilt)
	}
}

// --- Experiment: fault injection and recovery (docs/FAULTS.md) ----------

func expFaults() {
	fmt.Println("## E10: fault injection and recovery — retry + re-migration under a seeded fault plan")
	fmt.Println("fault plan | makespan (ticks) | retries | crashkills | migrations | committed")
	plans := []string{
		"seed=7",
		"seed=7,stepfail=*:0.4:2",
		"seed=7,crash=1@40-600",
		"seed=7,stall=0.5:25",
		"seed=7,crash=1@40-600,stepfail=*:0.3:2,stall=0.5:25",
	}
	if benchFaults != "" {
		plans = append(plans, benchFaults)
	}
	for i, planText := range plans {
		plan, err := fault.ParsePlan(planText)
		must(err)
		retryBefore := benchMetrics.Counter("task.step.retry")
		crashBefore := benchMetrics.Counter("sprite.proc.crashkill")
		sys := newSystem(core.Config{
			Nodes: 4, ReMigrateEvery: 20,
			ExtraTemplates: map[string]string{"Fanout4": fanoutTemplate},
			Fault:          &plan,
			Retry:          task.RetryPolicy{MaxAttempts: 4, BackoffBase: 8},
		})
		inputs := map[string]string{}
		for _, n := range []string{"A", "B", "C", "D"} {
			_, err := sys.ImportObject("/"+n, oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(5)))
			must(err)
			inputs[n] = "/" + n
		}
		th := sys.NewThread("faults", "u")
		rec, err := sys.Invoke(th, "Fanout4", inputs,
			map[string]string{"O1": "o1", "O2": "o2", "O3": "o3", "O4": "o4"})
		migrations := 0
		if rec != nil {
			for _, s := range rec.Steps {
				migrations += s.Migrations
			}
		}
		makespan := measureVT(fmt.Sprintf("faults.case%d", i), sys.Cluster.Now())
		fmt.Printf("%-52s | %16d | %7d | %10d | %10d | %v\n",
			planText, makespan,
			benchMetrics.Counter("task.step.retry")-retryBefore,
			benchMetrics.Counter("sprite.proc.crashkill")-crashBefore,
			migrations, err == nil)
	}
}

// --- Experiment: concurrent multi-session scaling (E11) -----------------

var (
	scaleSessions string
	scaleWorkers  string
	scaleLatency  time.Duration
	scaleMin      float64
	scaleRegress  float64
	scaleAllocMax float64
	scaleOut      string
	scaleWAL      bool
	scaleFsync    int64
	scaleMemo     bool
)

// statsSHA fingerprints a registry export with the memo.* namespace
// filtered out — the one namespace permitted to differ between memo-on
// and memo-off runs of the same workload (docs/CACHING.md). Memo-off
// registries have no memo.* entries, so their fingerprint is unchanged
// by the filter.
func statsSHA(reg *obs.Registry) string {
	var b strings.Builder
	must(reg.WriteTextFiltered(&b, func(name string) bool {
		return !strings.HasPrefix(name, "memo.")
	}))
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
}

// scaleRow is one (sessions, workers) cell of BENCH_scale.json.
type scaleRow struct {
	Sessions    int     `json:"sessions"`
	Workers     int     `json:"workers"`
	Steps       int64   `json:"steps"`
	WallMS      float64 `json:"wall_ms"`
	StepsPerSec float64 `json:"steps_per_sec"`
	SpeedupVs1  float64 `json:"speedup_vs_1_worker"`
	// StatsSHA and VersionSHA fingerprint the metrics export and the
	// final OCT version map; within one session count they must match
	// across every worker count and across repeated runs.
	StatsSHA   string `json:"stats_sha256"`
	VersionSHA string `json:"version_sha256"`
	// StripeContention is the store's contended-lock count — an
	// informational, scheduling-dependent probe excluded from the
	// fingerprints (docs/OBSERVABILITY.md).
	StripeContention int64 `json:"oct_stripe_contention"`
	// AllocsPerStep/BytesPerStep are runtime.MemStats deltas over the cell
	// divided by completed steps; populated only under -benchmem. Like
	// wall-clock they are host-dependent (GC timing, pool hit rates) and
	// excluded from the fingerprints.
	AllocsPerStep float64 `json:"allocs_per_step,omitempty"`
	BytesPerStep  float64 `json:"bytes_per_step,omitempty"`
}

// runScaleCell executes N independent Fanout4 sessions against one shared
// store with the given worker count and returns the measured row.
func runScaleCell(sessions, workers int) scaleRow {
	reg := obs.NewRegistry()
	cfg := core.Config{
		Nodes:            4,
		Workers:          workers,
		StepLatency:      scaleLatency,
		DisableInference: true,
		Metrics:          reg,
		ExtraTemplates:   map[string]string{"Fanout4": fanoutTemplate},
	}
	if scaleWAL {
		// A fresh log per cell: the point is the durability overhead and
		// the invariance of the fingerprints, not the log's content.
		dir, err := os.MkdirTemp("", "papyrus-scale-wal-")
		must(err)
		defer os.RemoveAll(dir)
		cfg.Durability = &core.DurabilityConfig{Dir: dir, FsyncEvery: scaleFsync}
	}
	if scaleMemo {
		// A fresh cache per cell keeps the workload all-miss: the point is
		// that keying and populating change no fingerprint, not hit speed.
		cfg.Memo = memo.NewCache()
	}
	sys, err := core.New(cfg)
	must(err)
	specs := make([]core.SessionSpec, sessions)
	for i := range specs {
		i := i
		specs[i] = core.SessionSpec{
			Name: fmt.Sprintf("s%d", i),
			Run: func(s *core.Session) error {
				inputs := map[string]oct.Ref{}
				for _, n := range []string{"A", "B", "C", "D"} {
					obj, err := sys.Store.Put(fmt.Sprintf("/s%d/%s", s.Index, n),
						oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(4)), "seed")
					if err != nil {
						return err
					}
					inputs[n] = oct.Ref{Name: obj.Name, Version: obj.Version}
				}
				outputs := map[string]string{}
				for _, o := range []string{"O1", "O2", "O3", "O4"} {
					outputs[o] = fmt.Sprintf("/s%d/%s", s.Index, strings.ToLower(o))
				}
				rec, err := s.Tasks.RunTask(task.Invocation{
					Task: "Fanout4", Inputs: inputs, Outputs: outputs,
				})
				if err != nil {
					return err
				}
				if len(rec.Steps) != 4 {
					return fmt.Errorf("session %d: %d steps recorded, want 4", s.Index, len(rec.Steps))
				}
				return nil
			},
		}
	}
	var memBefore runtime.MemStats
	if benchMem {
		runtime.GC()
		runtime.ReadMemStats(&memBefore)
	}
	start := time.Now()
	_, err = sys.RunSessions(specs)
	wall := time.Since(start)
	var memAfter runtime.MemStats
	if benchMem {
		runtime.ReadMemStats(&memAfter)
	}
	must(err)
	must(sys.Close())

	steps := reg.Counter("task.step.complete")
	row := scaleRow{
		Sessions:         sessions,
		Workers:          workers,
		Steps:            steps,
		WallMS:           float64(wall.Microseconds()) / 1000,
		StepsPerSec:      float64(steps) / wall.Seconds(),
		StatsSHA:         statsSHA(reg),
		VersionSHA:       fmt.Sprintf("%x", sha256.Sum256([]byte(sys.Store.VersionMapText()))),
		StripeContention: sys.Store.StripeContention(),
	}
	if benchMem && steps > 0 {
		row.AllocsPerStep = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(steps)
		row.BytesPerStep = float64(memAfter.TotalAlloc-memBefore.TotalAlloc) / float64(steps)
	}
	return row
}

// expScale is E11: wall-clock throughput of the concurrent engine vs
// worker count at N independent sessions over one shared striped store.
// Before measuring, every session count's 1-worker cell is run twice and
// every other worker count once; all fingerprints within a session count
// must agree — a violated invariant is a hard failure, not a table row.
func expScale() {
	fmt.Println("## E11: multi-session scaling — steps/sec vs workers over the shared striped store")
	fmt.Printf("(step latency %v per tool body; fingerprints must match within each session row)\n", scaleLatency)
	if scaleWAL {
		fmt.Printf("(write-ahead logging ON, fsync-every=%d — fingerprints must match the durability-free contract)\n", scaleFsync)
	}
	if scaleMemo {
		fmt.Println("(step-result cache ON, fresh per cell — filtered fingerprints must match the memo-free contract)")
	}
	fmt.Println("sessions | workers | steps | wall ms | steps/sec | speedup | fingerprints")
	sessionCounts := parseIntList(scaleSessions)
	workerCounts := parseIntList(scaleWorkers)
	var rows []scaleRow
	var largest scaleRow
	for _, n := range sessionCounts {
		// Repeat-run determinism check at 1 worker.
		warm := runScaleCell(n, 1)
		base := runScaleCell(n, 1)
		if warm.StatsSHA != base.StatsSHA || warm.VersionSHA != base.VersionSHA {
			log.Fatalf("scale: sessions=%d: repeated 1-worker runs disagree (stats %s vs %s, versions %s vs %s)",
				n, warm.StatsSHA[:12], base.StatsSHA[:12], warm.VersionSHA[:12], base.VersionSHA[:12])
		}
		var best scaleRow
		sessionStart := len(rows)
		for _, w := range workerCounts {
			row := base
			if w != 1 {
				row = runScaleCell(n, w)
			}
			if row.StatsSHA != base.StatsSHA || row.VersionSHA != base.VersionSHA {
				log.Fatalf("scale: sessions=%d workers=%d: export diverged from 1-worker run (stats %s vs %s, versions %s vs %s)",
					n, w, row.StatsSHA[:12], base.StatsSHA[:12], row.VersionSHA[:12], base.VersionSHA[:12])
			}
			row.SpeedupVs1 = row.StepsPerSec / base.StepsPerSec
			if w >= best.Workers {
				best = row
			}
			rows = append(rows, row)
			fmt.Printf("%8d | %7d | %5d | %7.1f | %9.1f | %7.2f | ok (%s/%s)\n",
				n, w, row.Steps, row.WallMS, row.StepsPerSec, row.SpeedupVs1,
				row.StatsSHA[:12], row.VersionSHA[:12])
		}
		largest = best
		if scaleMin > 0 && n == sessionCounts[len(sessionCounts)-1] && best.SpeedupVs1 < scaleMin {
			gateFail("scale gate: sessions=%d workers=%d speedup %.2f < required %.2f",
				n, best.Workers, best.SpeedupVs1, scaleMin)
		}
		// Monotonicity gate: adding workers must never cost throughput.
		// The max-worker cell has to hold scaleRegress x the best
		// lower-worker cell of the same session count.
		if scaleRegress > 0 {
			var lowerBest float64
			for _, r := range rows[sessionStart:] {
				if r.Workers < best.Workers && r.StepsPerSec > lowerBest {
					lowerBest = r.StepsPerSec
				}
			}
			if lowerBest > 0 && best.StepsPerSec < scaleRegress*lowerBest {
				gateFail("scale regression gate: sessions=%d: workers=%d ran %.1f steps/sec, %.2fx the best lower-worker cell (%.1f) — floor %.2f",
					n, best.Workers, best.StepsPerSec, best.StepsPerSec/lowerBest, lowerBest, scaleRegress)
			}
		}
	}
	f, err := os.Create(scaleOut)
	must(err)
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	must(enc.Encode(rows))
	must(f.Close())
	fmt.Printf("wrote %d rows to %s\n", len(rows), scaleOut)
	if benchMem {
		// Greppable perf line for scripts/perfgate.sh: the largest cell's
		// allocation cost per completed step.
		fmt.Printf("perf: allocs/step = %.0f bytes/step = %.0f (sessions=%d workers=%d)\n",
			largest.AllocsPerStep, largest.BytesPerStep, largest.Sessions, largest.Workers)
		if scaleAllocMax > 0 && largest.AllocsPerStep > scaleAllocMax {
			gateFail("alloc gate: sessions=%d workers=%d allocated %.0f objects/step > ceiling %.0f",
				largest.Sessions, largest.Workers, largest.AllocsPerStep, scaleAllocMax)
		}
	}
	var md strings.Builder
	md.WriteString("### E11 scale: steps/sec vs workers\n\n")
	md.WriteString("| sessions | workers | steps | steps/sec | speedup vs 1w |")
	if benchMem {
		md.WriteString(" allocs/step |")
	}
	md.WriteString("\n|---:|---:|---:|---:|---:|")
	if benchMem {
		md.WriteString("---:|")
	}
	md.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&md, "| %d | %d | %d | %.1f | %.2f |", r.Sessions, r.Workers, r.Steps, r.StepsPerSec, r.SpeedupVs1)
		if benchMem {
			fmt.Fprintf(&md, " %.0f |", r.AllocsPerStep)
		}
		md.WriteString("\n")
	}
	md.WriteString("\n")
	appendSummary(md.String())
}

// --- Experiment: rework replay with memoization (E12) -------------------

var (
	replayWorkers string
	replayMin     float64
	replayOut     string
)

// replayChainTemplate threads two intermediates (m1, m2) through the
// chain, so replay hits depend on instance-suffix normalization and
// content-addressed version tokens (docs/CACHING.md), not just stable
// input names. Drawn from the workload generator; templates_test.go pins
// the bytes against the original hand-written template.
var replayChainTemplate = workload.ChainTemplate("ReplayChain", []string{"Build", "Optimize", "Finish"})

// replayRow is one (workers, memo) cell of BENCH_replay.json.
type replayRow struct {
	Workers     int     `json:"workers"`
	Memo        bool    `json:"memo"`
	FirstTicks  int64   `json:"first_run_ticks"`
	ReplayTicks int64   `json:"replay_ticks"`
	Speedup     float64 `json:"replay_speedup"`
	MemoHits    int64   `json:"memo_hits"`
	MemoMisses  int64   `json:"memo_misses"`
	// StatsSHA is the memo-filtered metrics fingerprint: constant across
	// worker counts within a memo setting. VersionSHA is the final OCT
	// version map: constant across every cell — memoized replay must
	// produce byte-identical store content to re-running the tools.
	StatsSHA   string `json:"stats_sha256"`
	VersionSHA string `json:"version_sha256"`
}

// runReplayCell runs the E12 workload once: a fan-out task plus an
// intermediate chain, then a cursor move back to the initial state and a
// redo of both records (§3.3.3). Returns the measured cell.
func runReplayCell(workers int, withMemo bool) replayRow {
	reg := obs.NewRegistry()
	cfg := core.Config{
		Nodes: 4, Workers: workers, DisableInference: true, Metrics: reg,
		ExtraTemplates: map[string]string{
			"Fanout4":     fanoutTemplate,
			"ReplayChain": replayChainTemplate,
		},
	}
	if withMemo {
		cfg.Memo = memo.NewCache()
	}
	sys, err := core.New(cfg)
	must(err)
	for _, n := range []string{"a", "b", "c", "d"} {
		_, err := sys.ImportObject("/replay/"+n, oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(4)))
		must(err)
	}
	th := sys.NewThread("replay", "u")
	recFan, err := sys.Invoke(th, "Fanout4",
		map[string]string{"A": "/replay/a", "B": "/replay/b", "C": "/replay/c", "D": "/replay/d"},
		map[string]string{"O1": "o1", "O2": "o2", "O3": "o3", "O4": "o4"})
	must(err)
	recChain, err := sys.Invoke(th, "ReplayChain",
		map[string]string{"A": "/replay/a"}, map[string]string{"Out": "chain.out"})
	must(err)
	first := measureVT(fmt.Sprintf("replay.first.w%d.memo=%v", workers, withMemo), sys.Cluster.Now())

	// Rework: back to the initial design state, then redo both records.
	must(th.MoveCursor(nil))
	_, err = sys.Activity.ReplayRecord(th, recFan)
	must(err)
	_, err = sys.Activity.ReplayRecord(th, recChain)
	must(err)
	replay := sys.Cluster.Now() - first
	benchMetrics.Observe(fmt.Sprintf("bench.replay.redo.w%d.memo=%v.ticks", workers, withMemo), replay)

	return replayRow{
		Workers:     workers,
		Memo:        withMemo,
		FirstTicks:  first,
		ReplayTicks: replay,
		Speedup:     float64(first) / float64(max64(1, replay)),
		MemoHits:    reg.Counter("memo.hit"),
		MemoMisses:  reg.Counter("memo.miss"),
		StatsSHA:    statsSHA(reg),
		VersionSHA:  fmt.Sprintf("%x", sha256.Sum256([]byte(sys.Store.VersionMapText()))),
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// expReplay is E12: virtual-tick cost of redoing work after a cursor
// move, with and without the step-result cache. The version-map
// fingerprint must be identical across every cell — memoization may only
// change how fast the store reaches a state, never which state — and the
// memo-filtered stats fingerprint must be worker-count invariant within
// each memo setting.
func expReplay() {
	fmt.Println("## E12: rework replay — redo cost after a cursor move, memo off vs on")
	fmt.Println("workers | memo | first run (ticks) | replay (ticks) | speedup | hits | misses | fingerprints")
	workerCounts := parseIntList(replayWorkers)
	var rows []replayRow
	var gate replayRow
	for _, withMemo := range []bool{false, true} {
		var base replayRow
		for i, w := range workerCounts {
			row := runReplayCell(w, withMemo)
			if i == 0 {
				base = row
			}
			if row.StatsSHA != base.StatsSHA {
				log.Fatalf("replay: memo=%v workers=%d: stats fingerprint diverged from workers=%d (%s vs %s)",
					withMemo, w, base.Workers, row.StatsSHA[:12], base.StatsSHA[:12])
			}
			if len(rows) > 0 && row.VersionSHA != rows[0].VersionSHA {
				log.Fatalf("replay: memo=%v workers=%d: version map diverged from the memo-off reference (%s vs %s)",
					withMemo, w, row.VersionSHA[:12], rows[0].VersionSHA[:12])
			}
			rows = append(rows, row)
			if withMemo {
				gate = row
			}
			fmt.Printf("%7d | %4v | %17d | %14d | %7.2f | %4d | %6d | ok (%s/%s)\n",
				w, withMemo, row.FirstTicks, row.ReplayTicks, row.Speedup,
				row.MemoHits, row.MemoMisses, row.StatsSHA[:12], row.VersionSHA[:12])
		}
	}
	f, err := os.Create(replayOut)
	must(err)
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	must(enc.Encode(rows))
	must(f.Close())
	fmt.Printf("wrote %d rows to %s\n", len(rows), replayOut)
	if replayMin > 0 && gate.Speedup < replayMin {
		gateFail("replay gate: workers=%d memo=on speedup %.2f < required %.2f",
			gate.Workers, gate.Speedup, replayMin)
	}
	var md strings.Builder
	md.WriteString("### E12 replay: redo cost after a cursor move\n\n")
	md.WriteString("| workers | memo | first run (ticks) | replay (ticks) | speedup | hits | misses |\n")
	md.WriteString("|---:|:---:|---:|---:|---:|---:|---:|\n")
	for _, r := range rows {
		fmt.Fprintf(&md, "| %d | %v | %d | %d | %.2f | %d | %d |\n",
			r.Workers, r.Memo, r.FirstTicks, r.ReplayTicks, r.Speedup, r.MemoHits, r.MemoMisses)
	}
	md.WriteString("\n")
	appendSummary(md.String())
}

func parseIntList(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			log.Fatalf("bad count %q in list %q", part, s)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		log.Fatal("empty count list")
	}
	return out
}

func fanTemplate(fanout int) string {
	s := "task Fan {A} {"
	for i := 0; i < fanout; i++ {
		s += fmt.Sprintf("D%d ", i)
	}
	s += "}\nstep S0 {A} {net} {bdsyn -o net A}\n"
	for i := 0; i < fanout; i++ {
		s += fmt.Sprintf("step S%d {net} {D%d} {misII -o D%d net}\n", i+1, i, i)
	}
	return s
}
