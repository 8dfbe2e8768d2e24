package activity

import (
	"bytes"
	"fmt"
	"sort"

	"papyrus/internal/history"
	"papyrus/internal/obs"
	"papyrus/internal/oct"
	"papyrus/internal/task"
	"papyrus/internal/wal"
)

// Manager is the design activity manager: it creates and manipulates
// threads, invokes tasks through the task manager, and attaches the
// returned history records to control streams using the insertion-point
// convention (§5.3).
type Manager struct {
	store *oct.Store
	tasks *task.Manager

	threads    map[int]*Thread
	nextThread int

	// filter lists task names whose history records are discarded —
	// "facility" tasks like printing (§5.4 Filtering).
	filter map[string]bool

	metrics *obs.Registry
	tracer  *obs.Tracer
	vtnow   func() int64
	// wal, when attached, receives thread lifecycle, record attach, and
	// cursor move entries (wal.go).
	wal *wal.Log
}

// SetObservability installs optional metrics/trace sinks (nil = off) and
// a virtual-time source for trace stamps; when now is nil, events fall
// back to the store clock.
func (m *Manager) SetObservability(metrics *obs.Registry, tracer *obs.Tracer, now func() int64) {
	m.metrics = metrics
	m.tracer = tracer
	m.vtnow = now
}

// vt returns the trace timestamp for activity events.
func (m *Manager) vt() int64 {
	if m.vtnow != nil {
		return m.vtnow()
	}
	return m.store.Clock()
}

// emitThreadEvent records a thread-manipulation trace event.
func (m *Manager) emitThreadEvent(typ obs.EventType, t *Thread, args map[string]string) {
	if m.tracer == nil {
		return
	}
	m.tracer.Emit(obs.Event{VT: m.vt(), Type: typ, Name: t.name, Args: args})
}

// NewManager builds an activity manager over a store and a task manager.
func NewManager(store *oct.Store, tasks *task.Manager) *Manager {
	return &Manager{
		store:   store,
		tasks:   tasks,
		threads: make(map[int]*Thread),
		filter:  make(map[string]bool),
	}
}

// Store exposes the underlying design database.
func (m *Manager) Store() *oct.Store { return m.store }

// SetThreadBase offsets this manager's thread IDs. Multi-session runs give
// each session's activity manager a disjoint base so thread IDs stay
// unique across managers sharing one store (core.System.RunSessions).
// Call before the first NewThread.
func (m *Manager) SetThreadBase(base int) { m.nextThread = base }

// SetFilter marks task names as unmonitored: their history records are
// discarded rather than attached (§5.4).
func (m *Manager) SetFilter(taskNames ...string) {
	for _, n := range taskNames {
		m.filter[n] = true
	}
}

// NewThread creates an empty design thread: null control stream, null
// workspace, cursor at the initial design point (§3.3.4.1).
func (m *Manager) NewThread(name, owner string) *Thread {
	m.nextThread++
	t := &Thread{
		id:     m.nextThread,
		name:   name,
		owner:  owner,
		mgr:    m,
		stream: history.NewStream(),
	}
	t.touch()
	m.threads[t.id] = t
	m.metrics.Inc("activity.thread.create")
	// Creation of an empty thread is logged without its (null) stream;
	// append failure here surfaces on the next stream-mutating operation.
	_ = m.logThread("create", t, false)
	return t
}

// Threads lists all threads sorted by ID.
func (m *Manager) Threads() []*Thread {
	out := make([]*Thread, 0, len(m.threads))
	for _, t := range m.threads {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// DropThread removes a thread from the manager.
func (m *Manager) DropThread(t *Thread) {
	delete(m.threads, t.id)
	_ = m.logThread("drop", t, false)
}

// copyStream deep-copies a control stream via its persistent form.
func copyStream(s *history.Stream) (*history.Stream, error) {
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		return nil, err
	}
	return history.Load(&buf)
}

// ForkThread creates a thread inheriting from src (§3.3.4.1 Fork):
//   - at == nil and whole == false: empty initial workspace;
//   - whole == true: the entire control stream and workspace are copied;
//   - at != nil: only the portion of the control stream computing at's
//     thread state is copied, and the copied point becomes the cursor.
//
// The fork evolves completely independently of src.
func (m *Manager) ForkThread(src *Thread, at *history.Record, whole bool, name, owner string) (*Thread, error) {
	t := m.NewThread(name, owner)
	if src != nil {
		m.metrics.Inc("activity.thread.fork")
		args := map[string]string{"from": src.name}
		if at != nil {
			args["at"] = fmt.Sprintf("%d", at.ID)
		}
		m.emitThreadEvent(obs.EvThreadFork, t, args)
	}
	if src == nil || (at == nil && !whole) {
		return t, nil
	}
	if whole {
		cp, err := copyStream(src.stream)
		if err != nil {
			return nil, err
		}
		var cursor *history.Record
		if src.cursor != nil {
			cursor, _ = cp.ByID(src.cursor.ID)
		}
		t.adopt(cp, cursor)
		if err := m.logThread("fork", t, true); err != nil {
			return nil, err
		}
		return t, nil
	}
	// Design-point fork: copy at and its ancestors only.
	if _, ok := src.stream.ByID(at.ID); !ok {
		return nil, fmt.Errorf("activity: fork point %d not in thread %q", at.ID, src.name)
	}
	keep := src.stream.Ancestors(at)
	keep[at] = true
	cp, err := copyStream(src.stream)
	if err != nil {
		return nil, err
	}
	// Erase every record outside the kept set, leaves-first.
	for {
		erased := false
		for _, r := range cp.Records() {
			orig, ok := src.stream.ByID(r.ID)
			if ok && keep[orig] {
				continue
			}
			cp.Erase(r)
			erased = true
			break
		}
		if !erased {
			break
		}
	}
	cursor, _ := cp.ByID(at.ID)
	t.adopt(cp, cursor)
	if err := m.logThread("fork", t, true); err != nil {
		return nil, err
	}
	return t, nil
}

// Cascade concatenates two threads (§3.3.4.1, Fig 3.8): the trailing
// thread's roots attach below the specified connector, which must be a
// frontier cursor of the leading thread. Both source threads continue to
// exist independently; the result is a new thread.
func (m *Manager) Cascade(lead, trail *Thread, connector *history.Record, name, owner string) (*Thread, error) {
	if connector != nil && !isFrontier(lead.stream, connector) {
		return nil, fmt.Errorf("activity: connector %d is not a frontier cursor of %q", connector.ID, lead.name)
	}
	t, err := m.ForkThread(lead, nil, true, name, owner)
	if err != nil {
		return nil, err
	}
	trailCopy, err := copyStream(trail.stream)
	if err != nil {
		return nil, err
	}
	var attach *history.Record
	if connector != nil {
		rec, ok := t.stream.ByID(connector.ID)
		if !ok {
			return nil, fmt.Errorf("activity: connector lost in copy")
		}
		attach = rec
	}
	if _, err := history.Graft(t.stream, trailCopy, attach); err != nil {
		return nil, err
	}
	// Cached thread states of the trailing part are stale (§5.3): they
	// lack the leading thread's objects. graft drops them; recache the
	// new frontier lazily on demand.
	cursor := attach
	if fr := t.stream.Frontier(); len(fr) > 0 {
		cursor = fr[len(fr)-1]
	}
	t.adopt(t.stream, cursor)
	m.metrics.Inc("activity.thread.cascade")
	m.emitThreadEvent(obs.EvThreadCascade, t, map[string]string{"lead": lead.name, "trail": trail.name})
	if err := m.logThread("cascade", t, true); err != nil {
		return nil, err
	}
	return t, nil
}

// Join merges two threads at frontier connectors combined into a new
// design point (§3.3.4.1, Figs 3.9/3.10 — the ALU thread).
func (m *Manager) Join(a, b *Thread, connA, connB *history.Record, name, owner string) (*Thread, error) {
	if connA == nil || connB == nil {
		return nil, fmt.Errorf("activity: join requires connector points in both threads")
	}
	if !isFrontier(a.stream, connA) {
		return nil, fmt.Errorf("activity: connector %d is not a frontier cursor of %q", connA.ID, a.name)
	}
	if !isFrontier(b.stream, connB) {
		return nil, fmt.Errorf("activity: connector %d is not a frontier cursor of %q", connB.ID, b.name)
	}
	t, err := m.ForkThread(a, nil, true, name, owner)
	if err != nil {
		return nil, err
	}
	bCopy, err := copyStream(b.stream)
	if err != nil {
		return nil, err
	}
	idMap, err := history.Graft(t.stream, bCopy, nil)
	if err != nil {
		return nil, err
	}
	ca, ok := t.stream.ByID(connA.ID)
	if !ok {
		return nil, fmt.Errorf("activity: connector lost in copy")
	}
	cb, ok := t.stream.ByID(idMap[connB.ID])
	if !ok {
		return nil, fmt.Errorf("activity: trailing connector lost in graft")
	}
	join := &history.Record{
		TaskName: "<join>",
		Time:     m.store.Clock(),
	}
	t.stream.Append(join, ca)
	history.LinkParent(join, cb)
	t.cursor = join
	t.indexRecord(join)
	m.metrics.Inc("activity.thread.join")
	m.emitThreadEvent(obs.EvThreadJoin, t, map[string]string{"a": a.name, "b": b.name})
	if err := m.logThread("join", t, true); err != nil {
		return nil, err
	}
	return t, nil
}

func isFrontier(s *history.Stream, rec *history.Record) bool {
	for _, f := range s.Frontier() {
		if f == rec {
			return true
		}
	}
	return false
}

// InvokeTask resolves names in the thread's data scope, runs the task, and
// attaches the resulting history record at the proper insertion point
// (§5.2, §5.3). inputs map formal names to user-entered object names (the
// three forms of ResolveInput); outputs map formal names to plain object
// names.
func (m *Manager) InvokeTask(t *Thread, taskName string, inputs map[string]string, outputs map[string]string, opts ...InvokeOption) (*history.Record, error) {
	h := m.BeginTask(t)
	rec, err := m.runTask(t, taskName, inputs, outputs, opts...)
	if err != nil {
		return nil, err
	}
	return m.AttachRecord(t, h, rec)
}

// ReplayRecord re-invokes the task of an existing history record with the
// exact input versions and output names it recorded — the §3.3.3 rework
// loop: after a cursor move, the thread's control stream is redone task
// by task. A record stores its actual refs sorted by formal name (see
// task.run.execute), so the template's sorted formals rebind them
// one-to-one. With a memo cache armed the replayed steps are cache hits
// and the redo costs store commits instead of tool runs (docs/CACHING.md);
// without one it is an honest re-run. The new record attaches at the
// thread's current cursor under the usual insertion-point convention.
func (m *Manager) ReplayRecord(t *Thread, rec *history.Record) (*history.Record, error) {
	ins, outs, err := m.tasks.TemplateIO(rec.TaskName)
	if err != nil {
		return nil, err
	}
	sortedIns := append([]string(nil), ins...)
	sortedOuts := append([]string(nil), outs...)
	sort.Strings(sortedIns)
	sort.Strings(sortedOuts)
	if len(sortedIns) != len(rec.Inputs) || len(sortedOuts) != len(rec.Outputs) {
		return nil, fmt.Errorf("activity: record %d of task %q does not match the template's arity (%d/%d formals, %d/%d recorded)",
			rec.ID, rec.TaskName, len(sortedIns), len(sortedOuts), len(rec.Inputs), len(rec.Outputs))
	}
	inv := task.Invocation{
		Task:    rec.TaskName,
		Inputs:  map[string]oct.Ref{},
		Outputs: map[string]string{},
	}
	for i, formal := range sortedIns {
		inv.Inputs[formal] = rec.Inputs[i]
	}
	for i, formal := range sortedOuts {
		inv.Outputs[formal] = rec.Outputs[i].Name
	}
	h := m.BeginTask(t)
	newRec, err := m.tasks.RunTask(inv)
	if err != nil {
		return nil, err
	}
	m.metrics.Inc("activity.record.replay")
	return m.AttachRecord(t, h, newRec)
}

// InvokeOption tweaks a task invocation.
type InvokeOption func(*task.Invocation)

// WithOptionOverrides replaces a step's default tool options.
func WithOptionOverrides(ov map[string][]string) InvokeOption {
	return func(inv *task.Invocation) { inv.OptionOverrides = ov }
}

// WithOnRestart installs a restart hook.
func WithOnRestart(f func(int, *task.Invocation)) InvokeOption {
	return func(inv *task.Invocation) { inv.OnRestart = f }
}

func (m *Manager) runTask(t *Thread, taskName string, inputs, outputs map[string]string, opts ...InvokeOption) (*history.Record, error) {
	inv := task.Invocation{
		Task:    taskName,
		Inputs:  map[string]oct.Ref{},
		Outputs: map[string]string{},
	}
	for formal, name := range inputs {
		ref, err := t.ResolveInput(name)
		if err != nil {
			return nil, err
		}
		inv.Inputs[formal] = ref
	}
	for formal, name := range outputs {
		ref, err := oct.ParseRef(name)
		if err != nil {
			return nil, err
		}
		if ref.Version != 0 {
			return nil, fmt.Errorf("activity: output %q must not carry a version; versions are system-assigned (§3.2)", name)
		}
		inv.Outputs[formal] = ref.Name
	}
	for _, o := range opts {
		o(&inv)
	}
	return m.tasks.RunTask(inv)
}

// PendingInvocation captures the invocation cursor and path number of an
// in-flight task (§5.3): the attach point is determined by where the
// cursor was at invocation time, not at completion time.
type PendingInvocation struct {
	thread *Thread
	cursor *history.Record
	path   int
}

// BeginTask records the invocation context before a task starts. The path
// number is the index of the cursor child-branch this invocation will
// extend: at a frontier that is 0 (continue the line); after rework to a
// point with existing children it equals the child count, so the record
// starts a new branch (§5.3).
func (m *Manager) BeginTask(t *Thread) *PendingInvocation {
	t.nextInvocation++
	path := 0
	if t.cursor == nil {
		path = len(t.stream.Roots())
	} else {
		path = len(t.cursor.Children())
	}
	return &PendingInvocation{thread: t, cursor: t.cursor, path: path}
}

// AttachRecord attaches a completed task's history record according to the
// insertion-point convention (Fig 5.6): walk the invocation cursor's
// logical path; append at the path's end, or insert before the first
// branch encountered.
func (m *Manager) AttachRecord(t *Thread, h *PendingInvocation, rec *history.Record) (*history.Record, error) {
	if h.thread != t {
		return nil, fmt.Errorf("activity: invocation began on a different thread")
	}
	if m.filter[rec.TaskName] {
		// Unmonitored facility task: discard the record (§5.4).
		m.metrics.Inc("activity.record.filter")
		return nil, nil
	}
	m.metrics.Inc("activity.record.attach")
	parent, before := t.stream.AttachPoint(h.cursor, h.path)
	if before == nil {
		t.stream.Append(rec, parent)
		// The cursor advances automatically when the record lands on the
		// cursor's own path (§3.3.3).
		if t.cursor == parent {
			t.cursor = rec
		}
	} else {
		if _, err := t.stream.InsertBefore(rec, parent, before); err != nil {
			return nil, err
		}
	}
	placeRecord(t.stream, rec, parent)
	t.indexRecord(rec)
	t.touch()
	// Logged after the record is fully linked and placed so the payload
	// captures its final edges and display cell; the attach is
	// acknowledged only once the log append returns.
	if err := m.logAttach(t, rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// placeRecord assigns the record's display grid cell (§5.2: "each oval
// block is assigned a grid cell"): depth along X, a free lane along Y.
// Spliced records take their parent's lane; new branches take the first
// lane unused at that depth.
func placeRecord(s *history.Stream, rec, parent *history.Record) {
	x := 0
	if parent != nil {
		x = parent.X + 1
	}
	rec.X = x
	used := map[int]bool{}
	for _, r := range s.Records() {
		if r != rec && r.X == x {
			used[r.Y] = true
		}
	}
	y := 0
	if parent != nil {
		y = parent.Y
	}
	for used[y] {
		y++
	}
	rec.Y = y
	// A splice pushes the displaced chain one column right.
	if len(rec.Children()) > 0 {
		seen := map[*history.Record]bool{}
		var shift func(r *history.Record)
		shift = func(r *history.Record) {
			if seen[r] {
				return
			}
			seen[r] = true
			r.X++
			for _, c := range r.Children() {
				shift(c)
			}
		}
		for _, c := range rec.Children() {
			shift(c)
		}
	}
}
