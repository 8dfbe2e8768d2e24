// Package core is the public facade of the Papyrus reproduction: it wires
// the substrates (Tcl/TDL interpreter, simulated Sprite cluster, OCT-like
// object store, simulated CAD suite) to the two Papyrus subsystems — the
// task manager (Ch. 4) and the activity manager (Ch. 5) — with the
// metadata-inference engine (Ch. 6) observing every design step and the
// storage reclaimer (§5.4) bounding single-assignment growth.
//
// A System is one design environment (Fig 1.1/Fig 3.12): create threads,
// invoke tasks in them, rework the history, share through SDS spaces, and
// query inferred metadata. For a team, RunSessions drives N concurrent
// Sessions — each a private virtual-time cluster and task/activity stack
// over the shared store, with a disjoint thread-ID base — and OpenSession
// hands out the same isolation one session at a time; in the served
// architecture (cmd/papyrusd, docs/SERVER.md) each engine shard is one
// System and every wire session is one such Session.
package core

import (
	"fmt"
	"sync"
	"time"

	"papyrus/internal/activity"
	"papyrus/internal/attr"
	"papyrus/internal/baseline"
	"papyrus/internal/cad"
	"papyrus/internal/fault"
	"papyrus/internal/history"
	"papyrus/internal/infer"
	"papyrus/internal/memo"
	"papyrus/internal/obs"
	"papyrus/internal/oct"
	"papyrus/internal/rebuild"
	"papyrus/internal/reclaim"
	"papyrus/internal/render"
	"papyrus/internal/sds"
	"papyrus/internal/sprite"
	"papyrus/internal/task"
	"papyrus/internal/templates"
	"papyrus/internal/wal"
)

// Config parameterizes a System.
type Config struct {
	// Nodes is the workstation count of the simulated network (>= 1;
	// default 4).
	Nodes int
	// MigrationDelay is the virtual cost of process migration (default 2).
	MigrationDelay int64
	// ReMigrateEvery enables the re-migration poll (§4.3.3); 0 disables.
	ReMigrateEvery int64
	// ExtraTemplates overlays additional TDL templates over the shipped
	// set, keyed by task name.
	ExtraTemplates map[string]string
	// ReclaimGrace is the invisibility age before physical reclamation.
	ReclaimGrace int64
	// MaxRestarts bounds programmable-abort restarts (default 3).
	MaxRestarts int
	// DisableInference skips metadata inference (for A/B experiments).
	DisableInference bool
	// StoreStripes overrides the object store's lock-stripe count
	// (rounded up to a power of two); 0 selects the oct default. The
	// striped-apply invariance matrix runs 1 vs 64 to prove the stripe
	// count is unobservable in stats, traces, and version maps.
	StoreStripes int
	// StoreBackend accepts only "" or "map", the one object-store index
	// (docs/STORAGE.md); New rejects anything else. It survives only
	// because the perfbench harness still sets it, and goes once that
	// benchmark can change.
	StoreBackend string
	// NodeSpeeds optionally sets per-node relative CPU speeds.
	NodeSpeeds []float64
	// SweepEvery runs the background object reclaimer at this virtual
	// interval (the abstract's "history-based object reclamation in the
	// background"); 0 disables the periodic sweep.
	SweepEvery int64
	// SweepBudget bounds index records scanned per background sweep
	// slice (docs/RECLAIM.md); <= 0 sweeps the whole store each time.
	SweepBudget int
	// Metrics receives counters and histograms from every subsystem
	// (nil = no metrics; zero instrumentation cost).
	Metrics *obs.Registry
	// Trace receives typed events stamped with cluster virtual time
	// (nil = no tracing).
	Trace *obs.Tracer
	// Fault optionally arms a deterministic fault-injection plan — node
	// crashes, transient step failures, migration stalls — against the
	// cluster and task manager (docs/FAULTS.md). Nil injects nothing.
	Fault *fault.Plan
	// Retry is the task manager's per-step retry policy for transient
	// failures; the zero value disables retries. Independent of
	// MaxRestarts (a retry never consumes a programmable-abort restart).
	Retry task.RetryPolicy
	// Workers sizes the concurrency of the engine: the task manager's
	// per-batch tool-body pool and the number of sessions RunSessions
	// executes at once. <= 0 selects task.DefaultWorkers. Exports stay
	// byte-identical at any value (EXPERIMENTS.md E11).
	Workers int
	// StepLatency adds a wall-clock sleep to every executed tool body,
	// modeling real CAD tool invocation overhead (process spawn, file
	// I/O). Virtual time is unaffected; throughput measurements use it.
	StepLatency time.Duration
	// Durability arms write-ahead logging: committed versions, thread
	// lifecycle events, and cursor moves are logged before acknowledgment,
	// and Recover rebuilds the environment after a crash
	// (docs/DURABILITY.md). Nil runs without a log.
	Durability *DurabilityConfig
	// Memo arms history-based redo avoidance: a content-addressed
	// step-result cache consulted before every step issue, so re-running
	// recorded work (the §3.3.3 rework loop) materializes cached output
	// versions instead of re-invoking tools (docs/CACHING.md). The cache
	// is shared by every session of a RunSessions drive and is rebuilt
	// from history on Recover and LoadSession; nil disables memoization.
	Memo *memo.Cache
}

// System is a complete Papyrus design environment.
type System struct {
	Suite     *cad.Suite
	Store     *oct.Store
	Cluster   *sprite.Cluster
	Attrs     *attr.DB
	Tasks     *task.Manager
	Activity  *activity.Manager
	Inference *infer.Engine
	Reclaimer *reclaim.Reclaimer
	// Fault is the armed fault injector; nil when Config.Fault was unset.
	Fault *fault.Injector
	// Metrics and Trace are the observability sinks shared by every
	// subsystem; nil when the Config left them unset.
	Metrics *obs.Registry
	Trace   *obs.Tracer
	// WAL is the shared write-ahead log; nil when Config.Durability was
	// unset. Close releases it.
	WAL *wal.Log
	// Memo is the armed step-result cache; nil when Config.Memo was unset.
	Memo *memo.Cache

	cfg Config

	spacesMu sync.Mutex
	spaces   map[string]*sds.Space

	// infMu serializes inference observations when several sessions
	// complete steps concurrently (RunSessions).
	infMu sync.Mutex
}

// New builds and wires a System.
func New(cfg Config) (*System, error) {
	if cfg.StoreBackend != "" && cfg.StoreBackend != "map" {
		return nil, fmt.Errorf("core: unknown store backend %q (the only store is \"map\")", cfg.StoreBackend)
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 4
	}
	if cfg.MigrationDelay == 0 {
		cfg.MigrationDelay = 2
	}
	cluster, err := sprite.NewCluster(sprite.Config{
		Nodes:          cfg.Nodes,
		MigrationDelay: cfg.MigrationDelay,
		Speeds:         cfg.NodeSpeeds,
		Metrics:        cfg.Metrics,
		Tracer:         cfg.Trace,
	})
	if err != nil {
		return nil, err
	}
	store := oct.NewStoreWithStripes(cfg.StoreStripes)
	s := &System{
		Suite:   cad.NewSuite(),
		Store:   store,
		Cluster: cluster,
		Metrics: cfg.Metrics,
		Trace:   cfg.Trace,
		cfg:     cfg,
		spaces:  make(map[string]*sds.Space),
	}
	s.Store.SetObservability(cfg.Metrics, cfg.Trace, cluster.Now)
	s.Attrs = attr.New(cad.Measure)
	if !cfg.DisableInference {
		s.Inference = infer.NewEngine(s.Suite, s.Store, s.Attrs)
	}
	taskCfg := task.Config{
		Suite:          s.Suite,
		Store:          s.Store,
		Cluster:        cluster,
		Templates:      templates.Source(cfg.ExtraTemplates),
		AttrDB:         s.Attrs,
		MaxRestarts:    cfg.MaxRestarts,
		ReMigrateEvery: cfg.ReMigrateEvery,
		Retry:          cfg.Retry,
		Workers:        cfg.Workers,
		StepLatency:    cfg.StepLatency,
		Metrics:        cfg.Metrics,
		Tracer:         cfg.Trace,
		Memo:           cfg.Memo,
	}
	s.Memo = cfg.Memo
	if cfg.Fault != nil {
		s.Fault = fault.New(*cfg.Fault)
		s.Fault.SetObservability(cfg.Metrics, cfg.Trace, cluster.Now)
		s.Fault.Arm(cluster)
		taskCfg.FaultStep = s.Fault.FailStep
	}
	if s.Inference != nil {
		taskCfg.OnStep = s.Inference.ObserveStep
	}
	s.Tasks, err = task.New(taskCfg)
	if err != nil {
		return nil, err
	}
	s.Activity = activity.NewManager(s.Store, s.Tasks)
	s.Activity.SetObservability(cfg.Metrics, cfg.Trace, cluster.Now)
	s.Reclaimer = reclaim.New(s.Store, reclaim.Policy{
		Grace:       cfg.ReclaimGrace,
		SweepBudget: cfg.SweepBudget,
		Memo:        cfg.Memo,
	})
	if cfg.SweepEvery > 0 {
		// The background reclaimer of §3.3.1/§5.4: runs as virtual time
		// advances, physically deleting versions hidden past the grace
		// period. Sweep errors only occur on archiver failures, which the
		// default (delete) policy cannot produce.
		cluster.Every(cfg.SweepEvery, func(now int64) {
			_, _ = s.Reclaimer.SweepObjects()
		})
	}
	if err := s.openWAL(); err != nil {
		return nil, err
	}
	return s, nil
}

// ImportObject checks an external object into the design database (the
// seed specifications a design session starts from).
func (s *System) ImportObject(name string, typ oct.Type, data oct.Value) (oct.Ref, error) {
	obj, err := s.Store.Put(name, typ, data, "import")
	if err != nil {
		return oct.Ref{}, err
	}
	return oct.Ref{Name: obj.Name, Version: obj.Version}, nil
}

// NewThread creates a design thread.
func (s *System) NewThread(name, owner string) *activity.Thread {
	return s.Activity.NewThread(name, owner)
}

// Invoke instantiates a task template in a thread. Input names use the
// three user forms (§5.2); outputs are plain names.
func (s *System) Invoke(t *activity.Thread, taskName string, inputs, outputs map[string]string, opts ...activity.InvokeOption) (*history.Record, error) {
	return s.Activity.InvokeTask(t, taskName, inputs, outputs, opts...)
}

// Space returns (creating on demand) a synchronization data space. Safe
// for concurrent use; concurrent sessions share the spaces they name.
func (s *System) Space(id string) *sds.Space {
	s.spacesMu.Lock()
	defer s.spacesMu.Unlock()
	sp, ok := s.spaces[id]
	if !ok {
		sp = sds.New(id, s.Store)
		sp.SetObservability(s.Metrics, s.Trace, s.Cluster.Now)
		s.spaces[id] = sp
	}
	return sp
}

// RenderThread renders a thread's control stream (the Fig 5.1 browser).
func (s *System) RenderThread(t *activity.Thread) string {
	return render.ControlStream(t.Stream(), t.Cursor())
}

// RenderScope renders the thread's current data scope (Fig 5.4).
func (s *System) RenderScope(t *activity.Thread) string {
	title := "(initial)"
	if c := t.Cursor(); c != nil {
		title = fmt.Sprintf("%s @ %d", c.TaskName, c.Time)
	}
	return render.DataScope(title, t.DataScope())
}

// Features reports Papyrus's Table I row, introspected from the wired
// subsystems rather than asserted.
func (s *System) Features() baseline.Features {
	return baseline.Features{
		ToolEncapsulation:       s.Suite != nil,                          // TDL-encapsulated tools
		ToolNavigation:          s.Tasks != nil,                          // task templates / navigation
		DesignExploration:       s.Activity != nil,                       // rework mechanism
		DataEvolution:           s.Inference != nil || s.Activity != nil, // history records + ADG
		ContextManagement:       s.Activity != nil,                       // threads as contexts
		CooperativeWork:         true,                                    // SDS + import (Space)
		DistributedArchitecture: s.Cluster != nil,                        // sprite cluster + migration
	}
}

// OutOfDate reports whether a derived object's transitive sources have
// newer versions than its recorded derivation used (§1.4's Make-style
// dependency knowledge, computed from the inferred ADG).
func (s *System) OutOfDate(target oct.Ref) (bool, error) {
	if s.Inference == nil {
		return false, fmt.Errorf("core: rebuild support requires the inference engine")
	}
	return rebuild.New(s.Suite, s.Store, s.Inference.Graph()).OutOfDate(target)
}

// InferenceResult is one InferenceQuery answer; the field matching the
// op is set.
type InferenceResult struct {
	// Type is the inferred object type (op "type").
	Type oct.Type
	// Refs is the lineage chain or equivalence class (ops "lineage",
	// "equivalence").
	Refs []oct.Ref
	// Relationships lists the ADG edges touching the object (op
	// "relationships").
	Relationships []infer.Relationship
	// OutOfDate reports staleness against the recorded derivation (op
	// "outofdate").
	OutOfDate bool
}

// InferenceQuery is the Ch. 6 read-side query surface (op = type |
// lineage | equivalence | relationships | outofdate) used by the served
// query endpoint and agentic workload designers. It takes the same mutex
// that serializes concurrent session step observations (sessions.go), so
// live sessions can query the ADG while others are still executing steps
// without racing the engine's internal maps.
func (s *System) InferenceQuery(op string, ref oct.Ref) (InferenceResult, error) {
	var res InferenceResult
	if s.Inference == nil {
		return res, fmt.Errorf("core: %s queries require the inference engine", op)
	}
	s.infMu.Lock()
	defer s.infMu.Unlock()
	switch op {
	case "type":
		t, ok := s.Inference.TypeOf(ref)
		if !ok {
			return res, fmt.Errorf("core: no inferred type for %s", ref)
		}
		res.Type = t
	case "lineage":
		res.Refs = s.Inference.Lineage(ref)
	case "equivalence":
		res.Refs = s.Inference.EquivalenceClass(ref)
	case "relationships":
		res.Relationships = s.Inference.Relationships(ref)
	case "outofdate":
		stale, err := rebuild.New(s.Suite, s.Store, s.Inference.Graph()).OutOfDate(ref)
		if err != nil {
			return res, err
		}
		res.OutOfDate = stale
	default:
		return res, fmt.Errorf("core: unknown query op %q (want type|lineage|equivalence|relationships|outofdate)", op)
	}
	return res, nil
}

// Rebuild replays a derived object's recorded derivation history against
// the latest source versions, producing a new version of the target.
func (s *System) Rebuild(target oct.Ref) (oct.Ref, error) {
	if s.Inference == nil {
		return oct.Ref{}, fmt.Errorf("core: rebuild support requires the inference engine")
	}
	return rebuild.New(s.Suite, s.Store, s.Inference.Graph()).Rebuild(target)
}

// TableI regenerates the dissertation's Table I: the literature rows plus
// rows introspected from the running implementations (the two baselines
// and Papyrus itself).
func (s *System) TableI() []baseline.System {
	rows := baseline.LiteratureRows()
	pf := baseline.NewPowerFrame(s.Suite, s.Store)
	vov := baseline.NewVOV(s.Suite, s.Store)
	// Replace the transcribed rows for systems we actually implement with
	// the introspected capabilities, marked Implemented.
	for i := range rows {
		switch rows[i].Name {
		case "Powerframe":
			rows[i] = baseline.System{Name: "Powerframe", Implemented: true, F: pf.Features()}
		case "VOV":
			rows[i] = baseline.System{Name: "VOV", Implemented: true, F: vov.Features()}
		}
	}
	rows = append(rows, baseline.System{Name: "Papyrus", Implemented: true, F: s.Features()})
	return rows
}
