package main

// pass.go runs one pass: one generated workload instance, set up, driven
// by two closed-loop designers, measured, checked and torn down. A run
// repeats passes with seeds derived from the run's seed until it has
// driven for the requested time.

import (
	"crypto/sha256"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"papyrus/internal/client"
	"papyrus/internal/core"
	"papyrus/internal/memo"
	"papyrus/internal/obs"
	"papyrus/internal/server"
	"papyrus/internal/workload"
)

// Load shape shared by every workload: two designers in a closed loop,
// two engine workers, two admission workers, at most two connections,
// zero tool latency, one shard on the map backend.
const (
	designers     = 2
	engineWorkers = 2
	nodes         = 4
	backend       = "map"
	// sweepBudget is the index records one barrier sweep may scan.
	sweepBudget = 2048
)

// workloadDef is one named benchmark workload.
type workloadDef struct {
	name    string
	profile string
	depth   int
	fanout  int  // 0 = the generator's default
	wire    bool // through papyrusd on loopback TCP
	memo    bool
	// durable arms the WAL, a budgeted sweep at every round barrier,
	// and a timed core.Recover after the drive.
	durable bool
}

var workloads = []workloadDef{
	{name: "serve-interactive", profile: "interactive", depth: 8, fanout: 8, wire: true},
	{name: "serve-agentic", profile: "agentic", depth: 32, wire: true},
	{name: "rework-durable", profile: "rework", depth: 32, fanout: 8, memo: true, durable: true},
	{name: "replay-memo", profile: "replay", depth: 64, memo: true},
}

// walFsyncEvery is rework-durable's WAL group-commit interval: large
// enough that the log is fsynced only at rotation, checkpoint and Close.
// Strict commit-before-ack (FsyncEvery 1) spent two thirds of the drive
// in fsync, whose latency on a shared virtual disk drifts between runs
// far beyond any bound a regression check could use.
const walFsyncEvery = math.MaxInt64

func (def workloadDef) walPolicy() string {
	if def.durable {
		return "appended before every acknowledgement; fsync only at rotation, checkpoint and Close"
	}
	return "none (no WAL)"
}

// passResult is what one pass measured.
type passResult struct {
	seed int64
	// speed is the host's speed measured around the drive (calib.go).
	speed   hostSpeed
	setup   time.Duration
	drive   time.Duration
	steps   int64
	cpu     time.Duration
	mallocs uint64
	allocB  uint64
	// heapB is the live heap at the end of the drive above heapBase,
	// the live heap before set-up: the harness's own samples from
	// earlier passes are not the system's.
	heapB, heapBase uint64
	gcCycles        uint32
	gcPause         time.Duration
	recover         time.Duration
	liveRatio       float64
	// ckptMS and ckptBytes time and size each SaveSession of a
	// restart.
	ckptMS    dist
	ckptBytes int64
	// checks says which post-drive checks ran; restartTime and refTime
	// are their wall times.
	checks               checks
	restartTime, refTime time.Duration
	// taskMS and opMS are designer-observed latency samples.
	taskMS, opMS dist
	attempted    int64
	failed       int64
	// layer holds the per-layer sums of a traced pass; nil otherwise.
	layer *layerSample
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// meter brackets the timed drive.
type meter struct {
	start time.Time
	cpu   time.Duration
	ms    runtime.MemStats
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.ms)
	m.cpu = cpuTime()
	m.start = time.Now()
	return m
}

// liveHeap forces a GC and returns HeapAlloc. The second GC empties the
// sync.Pool victim caches, whose contents depend on how the drive's
// goroutines happened to interleave.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// stop records the drive's wall time, CPU and allocation deltas, then
// records the live heap while the system is still live.
func (m *meter) stop(p *passResult) {
	p.drive = time.Since(m.start)
	p.cpu = cpuTime() - m.cpu
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	p.mallocs = end.Mallocs - m.ms.Mallocs
	p.allocB = end.TotalAlloc - m.ms.TotalAlloc
	p.gcCycles = end.NumGC - m.ms.NumGC
	p.gcPause = time.Duration(end.PauseTotalNs - m.ms.PauseTotalNs)
	if h := liveHeap(); h > p.heapBase {
		p.heapB = h - p.heapBase
	}
}

func versionSHA(sys *core.System) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(sys.Store.VersionMapText())))
}

func liveRatio(sys *core.System) float64 {
	if w := sys.Store.TotalWrittenBytes(); w > 0 {
		return float64(sys.Store.TotalBytes()) / float64(w)
	}
	return 0
}

func (def workloadDef) generate(seed int64) (*workload.Workload, error) {
	return workload.Generate(workload.Spec{
		Profile: def.profile, Seed: seed, Sessions: designers, Depth: def.depth, Fanout: def.fanout,
	})
}

// baseConfig is the engine configuration every path shares.
func baseConfig(reg *obs.Registry) core.Config {
	return core.Config{
		Nodes: nodes, Workers: engineWorkers, StoreBackend: backend,
		DisableInference: true, Metrics: reg,
	}
}

// referenceSHA drives the workload in-process in barrier-separated rounds and
// returns the version-map fingerprint: the output every path must match.
// OnRound, when set, runs at every barrier (rework-durable's sweeps).
func referenceSHA(w *workload.Workload, cfg core.Config, onRound func(*core.System) error) (string, error) {
	sys, err := core.New(w.CoreConfig(cfg))
	if err != nil {
		return "", err
	}
	opts := workload.Options{ForceRounds: true}
	if onRound != nil {
		opts.OnRound = func(int) error { return onRound(sys) }
	}
	err = workload.RunInProcess(sys, w, opts)
	sha := versionSHA(sys)
	if cerr := sys.Close(); err == nil {
		err = cerr
	}
	return sha, err
}

// restart measures the design database's restart after a drive and
// checks it rebuilds the live store. Without a WAL it checkpoints the
// live system (SaveSession) and times LoadSession from the checkpoint.
// With a WAL it closes the live system, times core.Recover over the log,
// then checkpoints the recovered system. Each SaveSession is recorded as
// a checkpoint sample.
func restart(sys *core.System, cfg core.Config, dir string, tr *tracer, p *passResult) error {
	ckpt, err := os.MkdirTemp(dir, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(ckpt)
	save := func(s *core.System) error {
		id := tr.begin(layerCheckpoint, "SaveSession", "", 0, 0)
		start := time.Now()
		err := s.SaveSession(ckpt)
		p.ckptMS = append(p.ckptMS, float64(time.Since(start).Nanoseconds())/1e6)
		tr.end(id)
		p.ckptBytes += dirBytes(ckpt)
		return err
	}
	want := sys.Store.Fingerprint()
	var restored *core.System
	if cfg.Durability == nil {
		if err := save(sys); err != nil {
			return err
		}
		id := tr.begin(layerRecover, "core.LoadSession", "", 0, 0)
		start := time.Now()
		restored, err = core.LoadSession(cfg, ckpt)
		p.recover = time.Since(start)
		tr.end(id)
	} else {
		if err := sys.Close(); err != nil {
			return err
		}
		id := tr.begin(layerRecover, "core.Recover", "", 0, 0)
		start := time.Now()
		restored, _, err = core.Recover(cfg, "")
		p.recover = time.Since(start)
		tr.end(id)
	}
	if err != nil {
		return err
	}
	defer restored.Close()
	if got := restored.Store.Fingerprint(); got != want {
		return fmt.Errorf("check: restored store %.12s differs from live store %.12s", got, want)
	}
	if cfg.Durability != nil {
		return save(restored)
	}
	return nil
}

// checks selects a pass's post-drive work. A restart times the design
// database's restart and checks it rebuilds the live store; a reference
// drive checks the version map against an independent drive of the same
// seed.
type checks struct {
	restart, reference bool
}

// wireSetup is a served system ready for its designers: papyrusd on a
// loopback listener and a client limited to two connections.
type wireSetup struct {
	w         *workload.Workload
	reg       *obs.Registry
	srv       *server.Server
	hs        *http.Server
	served    chan error
	transport *http.Transport
	rec       *wireRecorder
	cl        *client.Client
}

func setUpWire(def workloadDef, seed int64, tr *tracer) (*wireSetup, error) {
	w, err := def.generate(seed)
	if err != nil {
		return nil, err
	}
	s := &wireSetup{w: w, reg: obs.NewRegistry(), served: make(chan error, 1)}
	s.srv, err = server.New(server.Config{
		Shards: 1, Nodes: nodes, Workers: engineWorkers, StoreBackend: backend,
		ExtraTemplates: w.Templates, DisableInference: !w.Inference,
		Admission: server.AdmissionConfig{Workers: engineWorkers, MaxQueue: 1024},
		Metrics:   s.reg,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		return nil, err
	}
	s.hs = &http.Server{Handler: s.srv}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.transport = &http.Transport{MaxConnsPerHost: designers, MaxIdleConnsPerHost: designers}
	s.rec = newWireRecorder(s.transport, tr)
	s.cl = client.New("http://" + ln.Addr().String())
	s.cl.HTTP = &http.Client{Transport: s.rec}
	s.cl.RetryBudget = 100
	s.cl.Backoff = func(hint time.Duration) { time.Sleep(hint / 4) }
	return s, nil
}

// close stops the listener and waits for Serve to return, then closes
// the server.
func (s *wireSetup) close() {
	s.hs.Close()
	<-s.served
	s.transport.CloseIdleConnections()
	s.srv.Close()
}

// procSetup is an in-process system ready for its designers, with its
// WAL (rework-durable) in a scratch directory.
type procSetup struct {
	w      *workload.Workload
	reg    *obs.Registry
	cfg    core.Config
	sys    *core.System
	closed bool
}

func setUpProc(def workloadDef, seed int64, scratch string) (*procSetup, error) {
	s := &procSetup{reg: obs.NewRegistry()}
	var err error
	if s.w, err = def.generate(seed); err != nil {
		return nil, err
	}
	base := baseConfig(s.reg)
	if def.memo {
		base.Memo = memo.NewCache()
	}
	if def.durable {
		base.Durability = &core.DurabilityConfig{Dir: filepath.Join(scratch, "wal"), FsyncEvery: walFsyncEvery}
	}
	s.cfg = s.w.CoreConfig(base)
	if s.sys, err = core.New(s.cfg); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *procSetup) close() {
	if !s.closed {
		s.sys.Close()
	}
}

// runWirePass drives the workload through papyrusd. Its reference drive
// is an in-process drive of the same seed.
func runWirePass(def workloadDef, seed int64, dir string, tr *tracer, c checks) (*passResult, error) {
	p := &passResult{seed: seed, checks: c, heapBase: liveHeap()}
	t0 := time.Now()
	s, err := setUpWire(def, seed, tr)
	if err != nil {
		return nil, err
	}
	p.setup = time.Since(t0)
	defer s.close()
	sys := s.srv.ShardSystem(0)

	tr.startPass(def.profile)
	tr.wrapTools(sys.Suite)
	spanStart := tr.mark()
	var k kernelRuns
	k.time()
	for d := 0; d < designers; d++ {
		s.rec.root[d] = tr.begin(layerDesigner, fmt.Sprintf("designer d%d", d), "", d+1, 0)
	}
	m := startMeter()
	driveErr := workload.RunWire(s.cl, s.w, "wl-"+s.w.Spec.Profile)
	m.stop(p)
	for d := 0; d < designers; d++ {
		tr.end(s.rec.root[d])
	}
	k.time()
	p.speed = k.speed()

	reg := s.reg
	p.steps = reg.Counter("task.step.complete")
	p.liveRatio = liveRatio(sys)
	s.rec.mu.Lock()
	for route, lat := range s.rec.lat {
		for _, us := range lat {
			p.opMS = append(p.opMS, us/1e3)
			if route == "tasks" {
				p.taskMS = append(p.taskMS, us/1e3)
			}
		}
	}
	p.attempted = s.rec.requests
	p.failed = s.rec.errors + s.rec.retried + reg.Counter("task.step.fail") + reg.Counter("task.run.abort")
	s.rec.mu.Unlock()
	if driveErr != nil {
		p.failed++
		return p, fmt.Errorf("drive: %w", driveErr)
	}
	if tr != nil {
		p.layer = collectLayers(reg, sys, tr, spanStart, s.rec)
	}
	if c.restart {
		start := time.Now()
		if err := restart(sys, s.w.CoreConfig(baseConfig(nil)), dir, tr, p); err != nil {
			return p, fmt.Errorf("restart: %w", err)
		}
		p.restartTime = time.Since(start)
	}
	if c.reference {
		start := time.Now()
		want, err := referenceSHA(s.w, baseConfig(nil), nil)
		if err != nil {
			return p, fmt.Errorf("reference drive: %w", err)
		}
		if got := versionSHA(sys); got != want {
			return p, fmt.Errorf("check: served version map %.12s differs from in-process %.12s", got, want)
		}
		p.refTime = time.Since(start)
	}
	return p, nil
}

// runProcPass drives the workload in-process in barrier-separated rounds.
// Rounds are the only operation boundary the in-process path exposes,
// so latency samples are per round: the barrier-to-barrier time divided
// by the operations each designer issued in the round.
func runProcPass(def workloadDef, seed int64, dir string, tr *tracer, c checks) (*passResult, error) {
	// The scratch directory is the harness's, so it is made before the
	// set-up clock starts.
	scratch, err := os.MkdirTemp(dir, "pass-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	p := &passResult{seed: seed, checks: c, heapBase: liveHeap()}
	t0 := time.Now()
	s, err := setUpProc(def, seed, scratch)
	if err != nil {
		return nil, err
	}
	p.setup = time.Since(t0)
	defer s.close()
	sys, reg := s.sys, s.reg

	tr.startPass(def.profile)
	tr.wrapTools(sys.Suite)
	spanStart := tr.mark()
	roots := make([]int, designers)
	rounds := make([]int, designers)
	var k kernelRuns
	k.time()
	for d := range roots {
		roots[d] = tr.begin(layerDesigner, fmt.Sprintf("designer d%d", d), "", d+1, 0)
	}
	beginRound := func(r int) {
		for d := range rounds {
			rounds[d] = tr.begin(layerEngine, fmt.Sprintf("round %d", r), fmt.Sprintf("d%d-round%d", d, r), d+1, roots[d])
			tr.setOp(d, rounds[d])
		}
	}

	var sweeps []sweepStat
	var sweepMS dist
	tasks := func() int64 { return reg.Counter("task.run.commit") + reg.Counter("task.run.abort") }
	ops := func() int64 { return tasks() + reg.Counter("activity.cursor.move") }
	lastTasks, lastOps := int64(0), int64(0)
	var roundStart time.Time
	onRound := func(r int) error {
		elapsed := float64(time.Since(roundStart).Nanoseconds()) / 1e6
		for d := range rounds {
			tr.end(rounds[d])
		}
		nt, no := tasks(), ops()
		if n := nt - lastTasks; n > 0 {
			p.taskMS = append(p.taskMS, elapsed*designers/float64(n))
		}
		if n := no - lastOps; n > 0 {
			p.opMS = append(p.opMS, elapsed*designers/float64(n))
		}
		lastTasks, lastOps = nt, no
		if def.durable {
			id := tr.begin(layerReclaim, "Reclaimer.Sweep", "", 0, 0)
			start := time.Now()
			st, err := sys.Reclaimer.Sweep(sweepBudget)
			sweepMS = append(sweepMS, float64(time.Since(start).Nanoseconds())/1e6)
			tr.end(id)
			if err != nil {
				return fmt.Errorf("sweep: %w", err)
			}
			sweeps = append(sweeps, sweepStat{st.Versions, st.Bytes, st.Scanned, st.MemoInvalidated})
		}
		beginRound(r + 1)
		roundStart = time.Now()
		return nil
	}

	m := startMeter()
	roundStart = m.start
	beginRound(0)
	driveErr := workload.RunInProcess(sys, s.w, workload.Options{ForceRounds: true, OnRound: onRound})
	m.stop(p)
	for d := range roots {
		tr.end(rounds[d])
		tr.end(roots[d])
	}
	k.time()
	p.speed = k.speed()

	p.steps = reg.Counter("task.step.complete")
	p.liveRatio = liveRatio(sys)
	p.attempted = ops()
	p.failed = reg.Counter("task.step.fail") + reg.Counter("task.run.abort")
	if driveErr != nil {
		p.failed++
		return p, fmt.Errorf("drive: %w", driveErr)
	}
	if tr != nil {
		p.layer = collectLayers(reg, sys, tr, spanStart, nil)
		p.layer.sweepMS, p.layer.sweeps = sweepMS, sweeps
	}
	liveSHA := versionSHA(sys)
	restartCfg := s.w.CoreConfig(baseConfig(nil))
	refCfg := baseConfig(nil)
	var refRound func(*core.System) error
	if def.durable {
		// Recovery replays the whole WAL into a fresh memo; the
		// reference keeps the memo and the barrier sweeps, which decide
		// which versions remain, and drops only the WAL.
		restartCfg = s.cfg
		restartCfg.Metrics = nil
		restartCfg.Memo = memo.NewCache()
		refCfg.Memo = memo.NewCache()
		refRound = func(sys *core.System) error {
			_, err := sys.Reclaimer.Sweep(sweepBudget)
			return err
		}
	}
	if c.restart {
		start := time.Now()
		s.closed = def.durable // restart closes a durable system itself
		if err := restart(sys, restartCfg, dir, tr, p); err != nil {
			return p, fmt.Errorf("restart: %w", err)
		}
		p.restartTime = time.Since(start)
	}
	if c.reference {
		// Without refRound the reference runs with the memo off: every
		// hit must have materialized what re-running the tool produces.
		start := time.Now()
		want, err := referenceSHA(s.w, refCfg, refRound)
		if err != nil {
			return p, fmt.Errorf("reference drive: %w", err)
		}
		if liveSHA != want {
			return p, fmt.Errorf("check: version map %.12s differs from reference drive %.12s", liveSHA, want)
		}
		p.refTime = time.Since(start)
	}
	return p, nil
}

// dirBytes is the total size of the regular files in dir.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}
