// benchtool runs the experiments recorded in EXPERIMENTS.md, each under
// a fixed, named run.
//
// Usage: benchtool [-exp all|<run>] [-record] [-stats] [-trace file] [-faults plan] [-cpuprofile file] [-memprofile file]
//
// The qualitative runs (E1–E10: speedup, remigration, scopecache,
// storage, rework, viewport, inference, abort, rebuild, faults) print
// tables measured on the simulated cluster's virtual clock, so they
// reproduce bit-for-bit across runs and machines. Every other run emits
// rows of one schema, {cell, metric, value, unit}: they are written to
// BENCH_<run>.json under a header naming the run, host, Go version and
// commit, printed as a table, and appended to $GITHUB_STEP_SUMMARY when
// that is set. The bounds scripts/gates.txt sets for the run are then
// checked against its rows; a failed bound makes benchtool exit 1 after
// every output is written. Wall-clock and allocation metrics depend on
// the host; the fingerprint rows (stats_sha256, version_sha256,
// visible_sha256) are bit-reproducible. -exp all runs E1–E10 and replay.
package main

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"slices"
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
)

// measureVT records a system's final virtual clock under
// bench.<name>.ticks and returns it — the single timing path for
// experiment tables, replacing per-experiment Cluster.Now() bookkeeping.
func measureVT(name string, now int64) int64 {
	benchMetrics.Observe("bench."+name+".ticks", now)
	return now
}

// table adapts a qualitative experiment, which prints and emits no rows.
func table(f func()) func() []Row {
	return func() []Row { f(); return nil }
}

// runs is every run -exp accepts. Each fixes its experiment's cells as
// constants; scripts/gates.txt bounds metrics of these runs by name.
var runs = []run{
	{"speedup", nil, table(expSpeedup)},
	{"remigration", nil, table(expReMigration)},
	{"scopecache", nil, table(expScopeCache)},
	{"storage", nil, table(expStorage)},
	{"rework", nil, table(expRework)},
	{"viewport", nil, table(expViewport)},
	{"inference", nil, table(expInference)},
	{"abort", nil, table(expAbort)},
	{"rebuild", nil, table(expRebuild)},
	{"faults", nil, table(expFaults)},
	{"scale", scaleExp, scaleConfig{sessions: []int{1, 8, 64}, workers: []int{1, 2, 4, 8}, latency: 2 * time.Millisecond}.drive},
	{"scale-perf", scaleExp, scaleConfig{sessions: []int{16}, workers: []int{1, 4, 8}, latency: 2 * time.Millisecond}.drive},
	{"scale-wal", scaleExp, scaleConfig{sessions: []int{16}, workers: []int{1, 8}, latency: 2 * time.Millisecond, fsyncEvery: 50}.drive},
	{"scale-memo", scaleExp, scaleConfig{sessions: []int{16}, workers: []int{1, 8}, latency: 2 * time.Millisecond, memo: true}.drive},
	{"scale-1session", scaleExp, scaleConfig{sessions: []int{1}, workers: []int{1, 4, 8}, latency: 10 * time.Millisecond}.drive},
	{"replay", replayExp, expReplay},
	{"serve", serveExp, serveConfig{sessions: 256}.drive},
	{"serve-throttled", serveExp, serveConfig{sessions: 64, rate: 2, burst: 2}.drive},
	{"workload", workloadExp, workloadConfig{profiles: workload.Profiles()}.drive},
	{"reclaim", reclaimExp, reclaimConfig{depth: 128}.drive},
	{"reclaim-deep", reclaimExp, reclaimConfig{depth: 256}.drive},
	{"coverage", coverageExp, coverage},
}

// allRuns is what -exp all runs: the deterministic tables.
var allRuns = []string{"speedup", "remigration", "scopecache", "storage", "rework", "viewport", "inference", "abort", "rebuild", "faults", "replay"}

func lookupRun(name string) (run, bool) {
	i := slices.IndexFunc(runs, func(r run) bool { return r.name == name })
	if i < 0 {
		return run{}, false
	}
	return runs[i], true
}

// gatesPath is read from the working directory: run benchtool from the
// repository root, as scripts/gates.sh does.
const gatesPath = "scripts/gates.txt"

func main() { os.Exit(benchMain()) }

func benchMain() int {
	exp := flag.String("exp", "all", "run to execute: all (E1–E10 and replay) or one run name")
	stats := flag.Bool("stats", false, "print the aggregated metrics registry after the experiments")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON file covering all runs")
	faults := flag.String("faults", "", "extra fault plan for the recovery experiment, e.g. seed=3,crash=2@60-500 (docs/FAULTS.md)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (post-GC) to this file at exit")
	record := flag.Bool("record", false, "once the run's gates pass, tighten its ratchet bounds in "+gatesPath+" to the measured value plus headroom")
	flag.Parse()
	benchFaults = *faults
	if *tracePath != "" {
		benchTracer = obs.NewTracer()
	}

	names := []string{*exp}
	if *exp == "all" {
		names = allRuns
	}
	var todo []run
	for _, name := range names {
		r, ok := lookupRun(name)
		if !ok {
			var known []string
			for _, r := range runs {
				known = append(known, r.name)
			}
			fmt.Fprintf(os.Stderr, "unknown run %q; runs: all %s\n", name, strings.Join(known, " "))
			return 2
		}
		todo = append(todo, r)
	}
	src, err := os.ReadFile(gatesPath)
	if errors.Is(err, fs.ErrNotExist) && !*record {
		fmt.Fprintf(os.Stderr, "benchtool: no %s in the working directory; no bounds checked\n", gatesPath)
	} else {
		must(err)
	}
	gates, err := parseGates(string(src))
	must(err)

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

	failed := 0
	for _, r := range todo {
		rows := r.drive()
		if r.exp != nil {
			must(report(r, rows))
			fails := checkGates(gates, r.name, rows)
			for _, f := range fails {
				fmt.Fprintln(os.Stderr, "gate failed:", f)
			}
			failed += len(fails)
			if *record && len(fails) == 0 {
				next, notes := recordGates(string(src), gates, r.name, rows)
				if len(notes) > 0 {
					must(os.WriteFile(gatesPath, []byte(next), 0o644))
					src = []byte(next)
				}
				for _, n := range notes {
					fmt.Println(n)
				}
			}
		}
		if *exp == "all" {
			fmt.Println()
		}
	}
	if failed > 0 {
		log.Printf("benchtool: %d gate(s) failed", failed)
		return 1
	}
	return 0
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

// scaleConfig fixes the cells of one E11 run.
type scaleConfig struct {
	sessions, workers []int
	latency           time.Duration // injected wall-clock latency per tool body
	fsyncEvery        int64         // > 0 arms a write-ahead log with this group-commit interval
	memo              bool          // arms a fresh step-result cache per cell
}

// Cells s<N>/w<W> carry one drive each; cell s<N> carries
// max_vs_best_lower, the max-worker cell's throughput over the best
// lower-worker cell's, which must stay near 1 or above: adding workers
// must never cost throughput. Allocation and contention counts depend on
// GC timing and scheduling and are excluded from the fingerprints.
var scaleExp = &experiment{
	title: "E11 scale: steps/sec vs workers",
	metrics: []metric{
		{"steps", "1"}, {"wall_ms", "ms"}, {"steps_per_s", "1/s"}, {"speedup", "x"},
		{"max_vs_best_lower", "x"}, {"allocs_per_step", "1"}, {"bytes_per_step", "B"},
		{"stripe_contention", "1"}, {"stats_sha256", "sha256"}, {"version_sha256", "sha256"},
	},
}

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

// scaleCell is one measured (sessions, workers) drive.
type scaleCell struct {
	d                 drive
	steps, contention int64
	stats, versions   string
}

// runScaleCell executes N independent Fanout4 sessions against one shared
// store with the given worker count.
func runScaleCell(cfg scaleConfig, sessions, workers int) scaleCell {
	reg := obs.NewRegistry()
	ccfg := core.Config{
		Nodes:            4,
		Workers:          workers,
		StepLatency:      cfg.latency,
		DisableInference: true,
		Metrics:          reg,
		ExtraTemplates:   map[string]string{"Fanout4": fanoutTemplate},
	}
	if cfg.fsyncEvery > 0 {
		// A fresh log per cell: the point is the durability overhead and
		// the invariance of the fingerprints, not the log's content.
		dir, err := os.MkdirTemp("", "papyrus-scale-wal-")
		must(err)
		defer os.RemoveAll(dir)
		ccfg.Durability = &core.DurabilityConfig{Dir: dir, FsyncEvery: cfg.fsyncEvery}
	}
	if cfg.memo {
		// A fresh cache per cell keeps the workload all-miss: the point is
		// that keying and populating change no fingerprint, not hit speed.
		ccfg.Memo = memo.NewCache()
	}
	sys, err := core.New(ccfg)
	must(err)
	specs := make([]core.SessionSpec, sessions)
	for i := range specs {
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
	d, err := measure(func() error {
		_, err := sys.RunSessions(specs)
		return err
	})
	must(err)
	must(sys.Close())
	return scaleCell{
		d:          d,
		steps:      reg.Counter("task.step.complete"),
		contention: sys.Store.StripeContention(),
		stats:      statsSHA(reg),
		versions:   fmt.Sprintf("%x", sha256.Sum256([]byte(sys.Store.VersionMapText()))),
	}
}

// drive runs E11: wall-clock throughput of the concurrent engine vs
// worker count at N independent sessions over one shared striped store.
// Every session count's 1-worker cell runs twice and every other worker
// count once; all fingerprints within a session count must agree — a
// violated invariant is a hard failure, not a row.
func (cfg scaleConfig) drive() []Row {
	fmt.Println("## E11: multi-session scaling — steps/sec vs workers over the shared striped store")
	fmt.Printf("(step latency %v per tool body; fingerprints must match within each session row)\n", cfg.latency)
	if cfg.fsyncEvery > 0 {
		fmt.Printf("(write-ahead logging ON, fsync-every=%d — fingerprints must match the durability-free contract)\n", cfg.fsyncEvery)
	}
	if cfg.memo {
		fmt.Println("(step-result cache ON, fresh per cell — filtered fingerprints must match the memo-free contract)")
	}
	rs := rowSet{exp: scaleExp}
	maxWorkers := slices.Max(cfg.workers)
	for _, n := range cfg.sessions {
		warm := runScaleCell(cfg, n, 1)
		base := runScaleCell(cfg, n, 1)
		if warm.stats != base.stats || warm.versions != base.versions {
			log.Fatalf("scale: sessions=%d: repeated 1-worker runs disagree (stats %s vs %s, versions %s vs %s)",
				n, warm.stats[:12], base.stats[:12], warm.versions[:12], base.versions[:12])
		}
		perSec := func(c scaleCell) float64 { return float64(c.steps) / c.d.wall.Seconds() }
		var lowerBest, top float64
		for _, w := range cfg.workers {
			c := base
			if w != 1 {
				c = runScaleCell(cfg, n, w)
			}
			if c.stats != base.stats || c.versions != base.versions {
				log.Fatalf("scale: sessions=%d workers=%d: export diverged from 1-worker run (stats %s vs %s, versions %s vs %s)",
					n, w, c.stats[:12], base.stats[:12], c.versions[:12], base.versions[:12])
			}
			cell := fmt.Sprintf("s%d/w%d", n, w)
			rs.addDrive(cell, c.d, c.steps)
			rs.add(cell, "speedup", perSec(c)/perSec(base))
			rs.add(cell, "stripe_contention", float64(c.contention))
			rs.digest(cell, "stats_sha256", c.stats)
			rs.digest(cell, "version_sha256", c.versions)
			if w < maxWorkers {
				lowerBest = max(lowerBest, perSec(c))
			} else {
				top = perSec(c)
			}
		}
		if lowerBest > 0 {
			rs.add(fmt.Sprintf("s%d", n), "max_vs_best_lower", top/lowerBest)
		}
	}
	return rs.rows
}

// --- Experiment: rework replay with memoization (E12) -------------------

// replayChainTemplate threads two intermediates (m1, m2) through the
// chain, so replay hits depend on instance-suffix normalization and
// content-addressed version tokens (docs/CACHING.md), not just stable
// input names. Drawn from the workload generator; templates_test.go pins
// the bytes against the original hand-written template.
var replayChainTemplate = workload.ChainTemplate("ReplayChain", []string{"Build", "Optimize", "Finish"})

// Cells are memo-off/w<W> and memo-on/w<W>. stats_sha256 is the
// memo-filtered metrics fingerprint: constant across worker counts
// within a memo setting. version_sha256 is the final OCT version map:
// constant across every cell — memoized replay must produce
// byte-identical store content to re-running the tools.
var replayExp = &experiment{
	title: "E12 replay: redo cost after a cursor move",
	metrics: []metric{
		{"first_ticks", "ticks"}, {"replay_ticks", "ticks"}, {"speedup", "x"},
		{"memo_hits", "1"}, {"memo_misses", "1"},
		{"stats_sha256", "sha256"}, {"version_sha256", "sha256"},
	},
}

// replayCell is one measured (workers, memo) cell.
type replayCell struct {
	first, replay, hits, misses int64
	stats, versions             string
}

// runReplayCell runs the E12 workload once: a fan-out task plus an
// intermediate chain, then a cursor move back to the initial state and a
// redo of both records (§3.3.3).
func runReplayCell(workers int, withMemo bool) replayCell {
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

	return replayCell{
		first:    first,
		replay:   replay,
		hits:     reg.Counter("memo.hit"),
		misses:   reg.Counter("memo.miss"),
		stats:    statsSHA(reg),
		versions: fmt.Sprintf("%x", sha256.Sum256([]byte(sys.Store.VersionMapText()))),
	}
}

// expReplay is E12 at 1 and 8 workers: virtual-tick cost of redoing work after a cursor
// move, with and without the step-result cache. Memoization may only
// change how fast the store reaches a state, never which state.
func expReplay() []Row {
	fmt.Println("## E12: rework replay — redo cost after a cursor move, memo off vs on")
	rs := rowSet{exp: replayExp}
	var ref replayCell
	for _, withMemo := range []bool{false, true} {
		var base replayCell
		for i, w := range []int{1, 8} {
			c := runReplayCell(w, withMemo)
			if i == 0 {
				base = c
			}
			if c.stats != base.stats {
				log.Fatalf("replay: memo=%v workers=%d: stats fingerprint diverged from workers=%d (%s vs %s)",
					withMemo, w, 1, c.stats[:12], base.stats[:12])
			}
			if ref.versions == "" {
				ref = c
			}
			if c.versions != ref.versions {
				log.Fatalf("replay: memo=%v workers=%d: version map diverged from the memo-off reference (%s vs %s)",
					withMemo, w, c.versions[:12], ref.versions[:12])
			}
			cell := fmt.Sprintf("memo-off/w%d", w)
			if withMemo {
				cell = fmt.Sprintf("memo-on/w%d", w)
			}
			rs.add(cell, "first_ticks", float64(c.first))
			rs.add(cell, "replay_ticks", float64(c.replay))
			rs.add(cell, "speedup", float64(c.first)/float64(max(1, c.replay)))
			rs.add(cell, "memo_hits", float64(c.hits))
			rs.add(cell, "memo_misses", float64(c.misses))
			rs.digest(cell, "stats_sha256", c.stats)
			rs.digest(cell, "version_sha256", c.versions)
		}
	}
	return rs.rows
}

// --- Coverage -------------------------------------------------------------

var coverageExp = &experiment{
	title:   "total statement coverage of go test ./...",
	metrics: []metric{{"coverage_pct", "%"}},
}

// coverage runs the module's tests under -coverprofile from the
// working directory (the repository root) and reports the total
// statement coverage as cell "total".
func coverage() []Row {
	f, err := os.CreateTemp("", "papyrus-cover-*.out")
	must(err)
	must(f.Close())
	defer os.Remove(f.Name())
	if out, err := exec.Command("go", "test", "-count=1", "-coverprofile="+f.Name(), "./...").CombinedOutput(); err != nil {
		os.Stderr.Write(out)
		log.Fatalf("coverage: go test: %v", err)
	}
	out, err := exec.Command("go", "tool", "cover", "-func="+f.Name()).Output()
	must(err)
	for _, line := range strings.Split(string(out), "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == "total:" {
			pct, err := strconv.ParseFloat(strings.TrimSuffix(f[len(f)-1], "%"), 64)
			must(err)
			rs := rowSet{exp: coverageExp}
			rs.add("total", "coverage_pct", pct)
			return rs.rows
		}
	}
	log.Fatalf("coverage: no total line in go tool cover output:\n%s", out)
	return nil
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
