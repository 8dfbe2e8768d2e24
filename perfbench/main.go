// Command perfbench is the Papyrus benchmark. It drives one named
// workload — two closed-loop designers over papyrusd or the in-process
// engine — for a given time, checks every pass's output, and prints
// each end-to-end metric (or, with -trace 1, each per-layer metric)
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// A failed output check prints correct=false and exits 1.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench -workload serve-interactive -seed 1 -seconds 10 -trace 0
//
// See perfbench/README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// minPasses keeps the per-pass medians, setup_s among them, meaningful
// even when one pass outlasts the requested time.
const minPasses = 3

// checkShare bounds the time spent on restarts, and separately on
// reference drives, to this share of the drive time. The first two
// passes (in a traced run, the first untraced and the first traced)
// run both.
const checkShare = 0.3

// wallCap stops starting passes so that a run ends well within three
// minutes even on a slow host.
const wallCap = 120 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "input seed; passes use seeds derived from it")
		seconds = flag.Float64("seconds", 10, "drive time to measure")
		trace   = flag.Int("trace", 0, "1 = traced run: print per-layer metrics and write a Chrome trace")
		dir     = flag.String("dir", ".bench_build", "scratch directory for WAL, checkpoints and traces")
	)
	flag.Parse()
	// One P: the designers, engine workers and server still run as
	// concurrent goroutines, but the process no longer measures
	// cross-CPU wake-ups, idle spinning, or whatever else runs on the
	// host's other vCPU.
	runtime.GOMAXPROCS(1)
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Exit(run(*def, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *dir))
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// deriveSeed gives pass i of a run its own workload seed (splitmix64).
func deriveSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z % 1_000_000_007)
}

// stamp describes the host and build a result was measured on.
func stamp(def workloadDef, seed int64, traced bool) map[string]any {
	host, _ := os.Hostname()
	commit, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	commit += dirty
	return map[string]any{
		"workload": def.name, "seed": seed, "trace": traced,
		"host": host, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit, "wal_flush": def.walPolicy(),
		"designers": designers, "engine_workers": engineWorkers, "depth": def.depth,
	}
}

func run(def workloadDef, seed int64, budget time.Duration, traced bool, dir string) int {
	st := stamp(def, seed, traced)
	line, _ := json.Marshal(st)
	fmt.Printf("# stamp %s\n", line)

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	runPass := runProcPass
	if def.wire {
		runPass = runWirePass
	}
	var warm kernelRuns
	warm.time() // the kernel's first runs fill encoding/json's type caches
	var plain, withTrace []*passResult
	var driven, restarting, referencing time.Duration
	var attempted, failed int64
	correct := true
	start := time.Now()
	for i := 0; ; i++ {
		enough := driven >= budget && len(plain) >= minPasses && (!traced || len(withTrace) >= minPasses)
		if enough || (i > 0 && time.Since(start) > wallCap) {
			break
		}
		// A traced run alternates untraced and traced passes, each traced
		// pass repeating its predecessor's seed, so the tracing overhead
		// compares the same designs on the same host at the same time.
		passSeed := deriveSeed(seed, i)
		var ptr *tracer
		if traced && i%2 == 1 {
			ptr = tr
			passSeed = deriveSeed(seed, i-1)
		}
		always := i < 2
		c := checks{
			restart:   always || restarting.Seconds() < checkShare*driven.Seconds(),
			reference: always || referencing.Seconds() < checkShare*driven.Seconds(),
		}
		p, err := runPass(def, passSeed, dir, ptr, c)
		if p != nil {
			attempted += p.attempted
			failed += p.failed
		}
		if err != nil {
			fmt.Printf("# pass %d (seed %d) FAILED: %v\n", i, passSeed, err)
			correct = false
			break
		}
		driven += p.drive
		restarting += p.restartTime
		referencing += p.refTime
		fmt.Printf("# pass %d seed=%d traced=%t restart=%t reference=%t host_slowdown=%.3f/%.3f setup=%.4fs drive=%.3fs steps=%d steps/s=%.1f cpu_us/step=%.1f allocs/step=%.0f heap=%.3fMB recover=%.2fms\n",
			i, p.seed, ptr != nil, c.restart, c.reference, p.speed.wall, p.speed.cpu, p.setup.Seconds(), p.drive.Seconds(), p.steps,
			rate(p), p.cpu.Seconds()*1e6/float64(p.steps), float64(p.mallocs)/float64(p.steps), float64(p.heapB)/(1<<20), p.recover.Seconds()*1e3)
		if ptr != nil {
			withTrace = append(withTrace, p)
		} else {
			plain = append(plain, p)
		}
	}
	var setups, rawSetups, slowdown dist
	for _, p := range append(append([]*passResult(nil), plain...), withTrace...) {
		setups = append(setups, p.setup.Seconds()/p.speed.wall)
		rawSetups = append(rawSetups, p.setup.Seconds())
		slowdown = append(slowdown, p.speed.wall)
	}

	metrics := map[string]map[string]any{}
	report := func(m metric) {
		fmt.Printf("%s %s = %.6g %s%s\n", def.name, m.name, m.value, m.unit, m.note)
		metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	if correct {
		fmt.Printf("# host slowdown (calibration kernel, 1 = reference host): median %.3f, p10 %.3f, p90 %.3f over %d passes\n",
			slowdown.median(), slowdown.percentile(10), slowdown.percentile(90), len(slowdown))
		raw, _ := endToEnd(plain, rawSetups, false)
		for _, m := range raw {
			fmt.Printf("# as timed %s %s = %.6g %s%s\n", def.name, m.name, m.value, m.unit, m.note)
		}
		e2e, tails := endToEnd(plain, setups, true)
		if traced {
			for _, m := range append(e2e, tails...) {
				fmt.Printf("# untraced %s %s = %.6g %s%s\n", def.name, m.name, m.value, m.unit, m.note)
			}
			var overhead dist
			for k, p := range withTrace {
				overhead = append(overhead, 100*(1-rate(p)/rate(plain[k])))
			}
			self := tr.layerTimes(designers)
			printSelf(self)
			for _, m := range append(tails, layerMetrics(withTrace, self, overhead.median())...) {
				report(m)
			}
			path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", def.name, seed))
			if err := tr.writeChrome(path, st); err != nil {
				fmt.Println("# trace not written:", err)
			} else {
				fmt.Println("# chrome trace:", path)
			}
		} else {
			for _, m := range e2e {
				report(m)
			}
			for _, m := range tails {
				fmt.Printf("# %s %s = %.6g %s%s (no bound; a traced run reports it)\n", def.name, m.name, m.value, m.unit, m.note)
			}
		}
	}
	fmt.Printf("# %s error_ratio = %.6g (failed %d of %d attempted)\n", def.name, ratio(float64(failed), float64(attempted)), failed, attempted)
	out, _ := json.Marshal(map[string]any{
		"correct": correct, "attempted": max(attempted, failed, 1), "failed": failed, "metrics": metrics,
	})
	fmt.Println(string(out))
	if !correct {
		return 1
	}
	return 0
}

// rate is a pass's completed steps per second of drive time.
func rate(p *passResult) float64 {
	return float64(p.steps) / p.drive.Seconds()
}

// endToEnd derives the end-to-end metrics from untraced passes. Each
// pass runs different generated designs, whose tool costs vary widely,
// so rates and per-step costs are medians of per-pass figures, as are
// set-up, restart, heap and live ratio; latencies are exact quantiles
// over every sample of every pass. With scaled set, every wall time is
// divided by its pass's wall slowdown and every CPU time by its CPU
// slowdown (calib.go); setup must already be. The tail latencies come
// back apart: a minute of host contention doubles them, so no bound a
// regression check could use holds between runs, and they are reported
// unbounded.
func endToEnd(passes []*passResult, setup dist, scaled bool) (bounded, tails []metric) {
	var rates, cpu, mallocs, allocB, recov, heap, live, task, op dist
	for _, p := range passes {
		steps := float64(p.steps)
		wall, cpuSlow := 1.0, 1.0
		if scaled {
			wall, cpuSlow = p.speed.wall, p.speed.cpu
		}
		rates = append(rates, rate(p)*wall)
		cpu = append(cpu, p.cpu.Seconds()*1e6/steps/cpuSlow)
		mallocs = append(mallocs, float64(p.mallocs)/steps)
		allocB = append(allocB, float64(p.allocB)/steps)
		heap = append(heap, float64(p.heapB)/(1<<20))
		live = append(live, p.liveRatio)
		if p.checks.restart {
			recov = append(recov, p.recover.Seconds()/wall)
		}
		for _, v := range p.taskMS {
			task = append(task, v/wall)
		}
		for _, v := range p.opMS {
			op = append(op, v/wall)
		}
	}
	perPass := fmt.Sprintf(" (median of %d passes)", len(passes))
	tail := func(d dist) (float64, string) {
		p, v := d.tail()
		return v, fmt.Sprintf(" (p%d of %d samples)", p, len(d))
	}
	taskTail, taskNote := tail(task)
	opTail, opNote := tail(op)
	tails = []metric{
		{"task_p99_ms", "ms", taskTail, taskNote},
		{"op_p99_ms", "ms", opTail, opNote},
	}
	return []metric{
		{"setup_s", "s", setup.median(), fmt.Sprintf(" (median of %d set-ups)", len(setup))},
		{"steps_per_s", "1/s", rates.median(), perPass},
		{"task_p50_ms", "ms", task.median(), fmt.Sprintf(" (%d samples)", len(task))},
		{"op_p50_ms", "ms", op.median(), fmt.Sprintf(" (%d samples)", len(op))},
		{"recover_s", "s", recov.median(), fmt.Sprintf(" (median of %d restarts)", len(recov))},
		{"live_ratio", "1", live.median(), perPass},
		{"cpu_us_per_step", "us", cpu.median(), perPass},
		{"allocs_per_step", "1", mallocs.median(), perPass},
		{"alloc_bytes_per_step", "B", allocB.median(), perPass},
		{"heap_mb", "MB", heap.median(), perPass},
	}, tails
}

// printSelf prints each layer's self time in designer-seconds and its
// share, the designer layer's self time being the unattributed rest.
func printSelf(self map[string]time.Duration) {
	var total time.Duration
	for _, l := range selfLayers {
		total += self[l]
	}
	for _, l := range selfLayers {
		label := l
		if l == layerDesigner {
			label = "unattributed"
		}
		fmt.Printf("# self %-12s %10.1f ms %6.2f%%\n", label, self[l].Seconds()*1e3, 100*ratio(float64(self[l]), float64(total)))
	}
	for _, l := range []string{layerCheckpoint, layerRecover} {
		fmt.Printf("# self %-12s %10.1f ms (after the drive)\n", l, self[l].Seconds()*1e3)
	}
}
