package activity

import (
	"strings"
	"testing"

	"papyrus/internal/attr"
	"papyrus/internal/cad"
	"papyrus/internal/cad/logic"
	"papyrus/internal/history"
	"papyrus/internal/oct"
	"papyrus/internal/sds"
	"papyrus/internal/sprite"
	"papyrus/internal/task"
	"papyrus/internal/templates"
	"papyrus/internal/viewport"
)

type env struct {
	store *oct.Store
	mgr   *Manager
}

func newEnv(t testing.TB) *env {
	t.Helper()
	cluster, err := sprite.NewCluster(sprite.Config{Nodes: 4, MigrationDelay: 2})
	if err != nil {
		t.Fatal(err)
	}
	store := oct.NewStore()
	tm, err := task.New(task.Config{
		Suite:     cad.NewSuite(),
		Store:     store,
		Cluster:   cluster,
		Templates: templates.Source(nil),
		AttrDB:    attr.New(cad.Measure),
	})
	if err != nil {
		t.Fatal(err)
	}
	return &env{store: store, mgr: NewManager(store, tm)}
}

func (e *env) seed(t testing.TB, name string, typ oct.Type, data oct.Value) {
	t.Helper()
	if _, err := e.store.Put(name, typ, data, "seed"); err != nil {
		t.Fatal(err)
	}
}

// shifterThread reproduces the beginning of the Fig 3.7 Shifter-synthesis
// thread: create-logic-description, then logic-simulator.
func shifterThread(t testing.TB, e *env) *Thread {
	t.Helper()
	th := e.mgr.NewThread("Shifter-synthesis", "chiueh")
	e.seed(t, "/specs/shifter", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(4)))
	e.seed(t, "/specs/shifter.cmd", oct.TypeText, oct.Text(`
set d0 1
set d1 0
set d2 0
set d3 0
set s 0
sim
expect q0 1
`))
	if _, err := e.mgr.InvokeTask(th, "create-logic-description",
		map[string]string{"Spec": "/specs/shifter"},
		map[string]string{"Outlogic": "shifter.logic"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.mgr.InvokeTask(th, "logic-simulator",
		map[string]string{"Inlogic": "shifter.logic", "Commands": "/specs/shifter.cmd"},
		map[string]string{"Report": "shifter.simreport"}); err != nil {
		t.Fatal(err)
	}
	return th
}

func TestInvokeTaskAppendsAndAdvancesCursor(t *testing.T) {
	e := newEnv(t)
	th := shifterThread(t, e)
	if th.Stream().Len() != 2 {
		t.Fatalf("stream len %d, want 2", th.Stream().Len())
	}
	// Cursor advanced automatically to the latest record (§3.3.3).
	fr := th.Frontier()
	if len(fr) != 1 || th.Cursor() != fr[0] {
		t.Errorf("cursor not at frontier")
	}
	scope := th.DataScope()
	found := false
	for ref := range scope {
		if ref.Name == "shifter.logic" {
			found = true
		}
	}
	if !found {
		t.Error("shifter.logic not in data scope")
	}
}

func TestPlainNameResolvesInScopeOnly(t *testing.T) {
	e := newEnv(t)
	th := e.mgr.NewThread("t", "u")
	e.seed(t, "outside", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(2)))
	// Plain name not in (empty) scope fails — visibility dictates
	// accessibility (§3.2).
	if _, err := th.ResolveInput("outside"); err == nil {
		t.Error("plain name resolved outside the data scope")
	}
	// Explicit version and path forms bypass scope resolution (§5.2).
	if _, err := th.ResolveInput("outside@1"); err != nil {
		t.Errorf("explicit version form failed: %v", err)
	}
	e.seed(t, "/lib/outside", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(2)))
	if _, err := th.ResolveInput("/lib/outside"); err != nil {
		t.Errorf("path form failed: %v", err)
	}
	if _, err := th.ResolveInput("outside@99"); err == nil {
		t.Error("nonexistent explicit version accepted")
	}
}

func TestPlainNameResolvesLatestInScope(t *testing.T) {
	e := newEnv(t)
	th := shifterThread(t, e)
	// Run the simulator again, producing shifter.simreport@2 in scope.
	if _, err := e.mgr.InvokeTask(th, "logic-simulator",
		map[string]string{"Inlogic": "shifter.logic", "Commands": "/specs/shifter.cmd"},
		map[string]string{"Report": "shifter.simreport"}); err != nil {
		t.Fatal(err)
	}
	ref, err := th.ResolveInput("shifter.simreport")
	if err != nil {
		t.Fatal(err)
	}
	if ref.Version != 2 {
		t.Errorf("resolved version %d, want 2 (most recent in scope)", ref.Version)
	}
}

func TestOutputVersionForbidden(t *testing.T) {
	e := newEnv(t)
	th := e.mgr.NewThread("t", "u")
	e.seed(t, "/s", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(2)))
	_, err := e.mgr.InvokeTask(th, "create-logic-description",
		map[string]string{"Spec": "/s"},
		map[string]string{"Outlogic": "out@3"})
	if err == nil || !strings.Contains(err.Error(), "system-assigned") {
		t.Fatalf("versioned output accepted: %v", err)
	}
}

// TestFig35Fig36ReworkBranches reproduces the branching control stream of
// Figs 3.5/3.6: move the cursor back, invoke a different task, and the
// stream branches; erase removes the abandoned path.
func TestFig35Fig36ReworkBranches(t *testing.T) {
	e := newEnv(t)
	th := shifterThread(t, e)
	recs := th.SortedRecords()
	first := recs[0]

	// Rework: move the cursor back to the first design point (§3.3.3).
	if err := th.MoveCursor(first); err != nil {
		t.Fatal(err)
	}
	// The data scope rolls back: the simulation report vanishes from it.
	for ref := range th.DataScope() {
		if ref.Name == "shifter.simreport" {
			t.Error("rolled-back scope still contains later outputs")
		}
	}
	// Invoke the PLA branch from here: a new branch forms.
	if _, err := e.mgr.InvokeTask(th, "PLA-generation",
		map[string]string{"Inlogic": "shifter.logic"},
		map[string]string{"Outcell": "shifter.pla"}); err != nil {
		t.Fatal(err)
	}
	if len(first.Children()) != 2 {
		t.Fatalf("branch point has %d children, want 2", len(first.Children()))
	}
	if len(th.Frontier()) != 2 {
		t.Errorf("frontier size %d, want 2", len(th.Frontier()))
	}
	// Objects created in one branch are invisible in the other (§3.3.3).
	plaBranchScope := th.DataScope()
	for ref := range plaBranchScope {
		if ref.Name == "shifter.simreport" {
			t.Error("PLA branch sees the other branch's outputs")
		}
	}

	// Fig 3.6: rework with erase removes the abandoned branch.
	gone, err := th.MoveCursorErasing(first)
	if err != nil {
		t.Fatal(err)
	}
	if th.Stream().Len() != 1 {
		t.Errorf("stream len after erase %d, want 1", th.Stream().Len())
	}
	if len(gone) == 0 {
		t.Error("erase reported no removed objects")
	}
	for _, ref := range gone {
		if vis, err := e.store.Visible(ref); err == nil && vis {
			t.Errorf("erased object %s still visible", ref)
		}
	}
}

// TestFig37ShifterExploration walks the full Fig 3.7 scenario: standard
// cell branch, rework to design point 3, PLA branch, both coexisting.
func TestFig37ShifterExploration(t *testing.T) {
	e := newEnv(t)
	th := shifterThread(t, e)

	// Standard-cell approach: place&route then pads.
	if _, err := e.mgr.InvokeTask(th, "standard-cell-place-and-route",
		map[string]string{"Inlogic": "shifter.logic"},
		map[string]string{"Outcell": "shifter.sc"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.mgr.InvokeTask(th, "place-pads",
		map[string]string{"Incell": "shifter.sc"},
		map[string]string{"Outcell": "shifter.sc.padded"}); err != nil {
		t.Fatal(err)
	}

	// Rework to design point 3 (after logic simulation) and explore PLA.
	recs := th.SortedRecords()
	if err := th.MoveCursor(recs[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.mgr.InvokeTask(th, "PLA-generation",
		map[string]string{"Inlogic": "shifter.logic"},
		map[string]string{"Outcell": "shifter.pla"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.mgr.InvokeTask(th, "place-pads",
		map[string]string{"Incell": "shifter.pla"},
		map[string]string{"Outcell": "shifter.pla.padded"}); err != nil {
		t.Fatal(err)
	}

	// Two alternatives, each isolated: the PLA-branch scope has the PLA
	// padded cell but not the standard-cell one, and vice versa.
	plaScope := th.DataScope()
	if !scopeHas(plaScope, "shifter.pla.padded") || scopeHas(plaScope, "shifter.sc.padded") {
		t.Error("PLA branch scope wrong")
	}
	var scTip *history.Record
	for _, f := range th.Frontier() {
		state, _ := th.Stream().ThreadState(f)
		if scopeHas(state, "shifter.sc.padded") {
			scTip = f
		}
	}
	if scTip == nil {
		t.Fatal("standard-cell branch lost")
	}
	th.MoveCursor(scTip)
	scScope := th.DataScope()
	if scopeHas(scScope, "shifter.pla.padded") {
		t.Error("standard-cell branch sees PLA outputs")
	}
}

func scopeHas(scope map[oct.Ref]bool, name string) bool {
	for ref := range scope {
		if ref.Name == name {
			return true
		}
	}
	return false
}

func TestFig56InsertionPoint(t *testing.T) {
	e := newEnv(t)
	th := shifterThread(t, e)
	recs := th.SortedRecords()

	// A long-running task is invoked at the current cursor...
	h := e.mgr.BeginTask(th)
	// ...but while it runs the user moves the cursor back and commits
	// another task, creating a branch at recs[0].
	if err := th.MoveCursor(recs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.mgr.InvokeTask(th, "PLA-generation",
		map[string]string{"Inlogic": "shifter.logic"},
		map[string]string{"Outcell": "branch.pla"}); err != nil {
		t.Fatal(err)
	}

	// Now the long-running task completes; its record must attach to the
	// invocation cursor's logical path (after recs[1]), not to the moved
	// cursor (§5.3).
	late := &history.Record{TaskName: "late-task", Time: e.store.Clock(),
		Outputs: []oct.Ref{{Name: "late.out", Version: 1}}}
	attached, err := e.mgr.AttachRecord(th, h, late)
	if err != nil {
		t.Fatal(err)
	}
	if attached == nil {
		t.Fatal("record filtered unexpectedly")
	}
	if len(late.Parents()) != 1 || late.Parents()[0] != recs[1] {
		t.Errorf("late record attached under %v, want record %d", late.Parents(), recs[1].ID)
	}
	// The moved cursor must NOT have been disturbed.
	if th.Cursor() == late {
		t.Error("cursor jumped to the late record")
	}
}

func TestFig56InsertBeforeBranch(t *testing.T) {
	e := newEnv(t)
	th := shifterThread(t, e)
	recs := th.SortedRecords() // recs[0] -> recs[1], cursor at recs[1]

	// A long-running task T1 begins at the frontier recs[1] (path 0).
	h := e.mgr.BeginTask(th)
	// While it runs, another task completes on the same path...
	r2, err := e.mgr.InvokeTask(th, "PLA-generation",
		map[string]string{"Inlogic": "shifter.logic"},
		map[string]string{"Outcell": "b.pla"})
	if err != nil {
		t.Fatal(err)
	}
	// ...and the user reworks to r2's parent region: moving the cursor to
	// r2 and... creating a branch UNDER recs[1] by moving the cursor back
	// to recs[1] and invoking another task.
	if err := th.MoveCursor(recs[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.mgr.InvokeTask(th, "standard-cell-place-and-route",
		map[string]string{"Inlogic": "shifter.logic"},
		map[string]string{"Outcell": "b.sc"}); err != nil {
		t.Fatal(err)
	}
	// recs[1] now has two children (r2 and the SC record). T1's record
	// walks its path from recs[1]: the first node is the branching point
	// itself? No — recs[1] is the invocation cursor; its child list
	// branched, so the walk on path 0 hits a multi-child situation only
	// if a record ON the path has >1 children. Here the path's first
	// record r2 has no children, so T1 appends under r2.
	late := &history.Record{TaskName: "late", Time: e.store.Clock()}
	if _, err := e.mgr.AttachRecord(th, h, late); err != nil {
		t.Fatal(err)
	}
	if len(late.Parents()) != 1 || late.Parents()[0] != r2 {
		t.Fatalf("late attached under %v, want r2", late.Parents())
	}

	// Now the true insert-before case: T2 begins at recs[0] on path 0
	// (toward recs[1]); recs[1] is a branching record (two children), so
	// T2's record splices between recs[0] and recs[1] (Fig 5.6).
	if err := th.MoveCursor(recs[0]); err != nil {
		t.Fatal(err)
	}
	h2 := &PendingInvocation{thread: th, cursor: recs[0], path: 0}
	late2 := &history.Record{TaskName: "late2", Time: e.store.Clock()}
	if _, err := e.mgr.AttachRecord(th, h2, late2); err != nil {
		t.Fatal(err)
	}
	if len(late2.Parents()) != 1 || late2.Parents()[0] != recs[0] {
		t.Fatalf("late2 attached under %v, want recs[0]", late2.Parents())
	}
	if len(late2.Children()) != 1 || late2.Children()[0] != recs[1] {
		t.Fatalf("late2 not spliced before the branching record")
	}
}

func TestFilterDiscardsFacilityTasks(t *testing.T) {
	e := newEnv(t)
	e.mgr.SetFilter("logic-simulator")
	th := e.mgr.NewThread("t", "u")
	e.seed(t, "/s", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(4)))
	e.seed(t, "/c", oct.TypeText, oct.Text("set d0 1\nsim\n"))
	if _, err := e.mgr.InvokeTask(th, "create-logic-description",
		map[string]string{"Spec": "/s"}, map[string]string{"Outlogic": "l"}); err != nil {
		t.Fatal(err)
	}
	rec, err := e.mgr.InvokeTask(th, "logic-simulator",
		map[string]string{"Inlogic": "l", "Commands": "/c"},
		map[string]string{"Report": "r"})
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		t.Error("filtered task returned a record")
	}
	if th.Stream().Len() != 1 {
		t.Errorf("stream len %d, want 1 (simulator filtered)", th.Stream().Len())
	}
}

func TestFig38Cascade(t *testing.T) {
	e := newEnv(t)
	a := shifterThread(t, e)
	b := e.mgr.NewThread("second", "u")
	e.seed(t, "/s2", oct.TypeBehavioral, oct.Text(logic.AdderBehavior(2)))
	if _, err := e.mgr.InvokeTask(b, "create-logic-description",
		map[string]string{"Spec": "/s2"}, map[string]string{"Outlogic": "adder.logic"}); err != nil {
		t.Fatal(err)
	}
	conn := a.Frontier()[0]
	merged, err := e.mgr.Cascade(a, b, conn, "merged", "u")
	if err != nil {
		t.Fatal(err)
	}
	if merged.Stream().Len() != a.Stream().Len()+b.Stream().Len() {
		t.Errorf("merged len %d", merged.Stream().Len())
	}
	// The connector is no longer a frontier; the merged workspace unions
	// both workspaces.
	ws := merged.Workspace()
	if !scopeHas(ws, "shifter.logic") || !scopeHas(ws, "adder.logic") {
		t.Error("merged workspace incomplete")
	}
	if len(merged.Frontier()) != 1 {
		t.Errorf("frontier %d, want 1", len(merged.Frontier()))
	}
	// Originals unaffected (continue independently, §3.3.4.1).
	if a.Stream().Len() != 2 || b.Stream().Len() != 1 {
		t.Error("cascade mutated source threads")
	}
	// Cascading at a non-frontier connector fails.
	if _, err := e.mgr.Cascade(a, b, a.SortedRecords()[0], "bad", "u"); err == nil {
		t.Error("non-frontier connector accepted")
	}
}

// TestFig310ALUJoin reproduces the ALU-thread merge: a shifter thread and
// an arithmetic-unit thread join at their frontiers; the new thread's
// workspace is the union, and rework works across the join.
func TestFig310ALUJoin(t *testing.T) {
	e := newEnv(t)
	shifter := shifterThread(t, e)
	arith := e.mgr.NewThread("Arithmetic-unit", "mary")
	e.seed(t, "/specs/adder", oct.TypeBehavioral, oct.Text(logic.AdderBehavior(2)))
	if _, err := e.mgr.InvokeTask(arith, "create-logic-description",
		map[string]string{"Spec": "/specs/adder"},
		map[string]string{"Outlogic": "adder.logic"}); err != nil {
		t.Fatal(err)
	}

	alu, err := e.mgr.Join(shifter, arith, shifter.Frontier()[0], arith.Frontier()[0], "ALU", "randy")
	if err != nil {
		t.Fatal(err)
	}
	scope := alu.DataScope()
	if !scopeHas(scope, "shifter.logic") || !scopeHas(scope, "adder.logic") {
		t.Error("joined scope missing a side")
	}
	// The join point is the single frontier.
	if len(alu.Frontier()) != 1 {
		t.Errorf("frontier %d, want 1", len(alu.Frontier()))
	}
	// Both sides resolve by plain name in the joined thread.
	if _, err := alu.ResolveInput("adder.logic"); err != nil {
		t.Errorf("adder.logic not resolvable after join: %v", err)
	}
	// The combined thread works as if built from scratch: roll back to
	// any design point and branch (§3.3.4.1).
	recs := alu.SortedRecords()
	if err := alu.MoveCursor(recs[0]); err != nil {
		t.Fatal(err)
	}
	// Join validation.
	if _, err := e.mgr.Join(shifter, arith, nil, nil, "x", "u"); err == nil {
		t.Error("join without connectors accepted")
	}
	if _, err := e.mgr.Join(shifter, arith, shifter.SortedRecords()[0], arith.Frontier()[0], "x", "u"); err == nil {
		t.Error("join at non-frontier accepted")
	}
}

func TestForkThread(t *testing.T) {
	e := newEnv(t)
	src := shifterThread(t, e)
	// Empty fork.
	empty, err := e.mgr.ForkThread(src, nil, false, "empty", "u")
	if err != nil || empty.Stream().Len() != 0 {
		t.Errorf("empty fork: %v len %d", err, empty.Stream().Len())
	}
	// Whole-workspace fork evolves independently.
	whole, err := e.mgr.ForkThread(src, nil, true, "whole", "u")
	if err != nil {
		t.Fatal(err)
	}
	if whole.Stream().Len() != src.Stream().Len() {
		t.Errorf("whole fork len %d", whole.Stream().Len())
	}
	if _, err := e.mgr.InvokeTask(whole, "PLA-generation",
		map[string]string{"Inlogic": "shifter.logic"},
		map[string]string{"Outcell": "fork.pla"}); err != nil {
		t.Fatal(err)
	}
	if src.Stream().Len() != 2 {
		t.Error("fork mutated the source thread")
	}
	// Design-point fork takes only the prefix.
	recs := src.SortedRecords()
	point, err := e.mgr.ForkThread(src, recs[0], false, "point", "u")
	if err != nil {
		t.Fatal(err)
	}
	if point.Stream().Len() != 1 {
		t.Errorf("point fork len %d, want 1", point.Stream().Len())
	}
	if point.Cursor() == nil || point.Cursor().TaskName != recs[0].TaskName {
		t.Error("point fork cursor wrong")
	}
}

func TestFig311SDS(t *testing.T) {
	e := newEnv(t)
	randy := shifterThread(t, e)
	mary := e.mgr.NewThread("Mary-thread", "mary")
	john := e.mgr.NewThread("John-thread", "john")

	spaceA := sds.New("A", e.store)
	spaceA.Register(randy.ID())
	spaceA.Register(mary.ID())

	// Randy contributes the shifter logic to SDS A.
	ref, err := e.mgr.MoveToSDS(randy, "shifter.logic", spaceA)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(ref.Name, "sds/A/") {
		t.Errorf("space copy name %q", ref.Name)
	}
	// John is not registered: no access (§3.3.4.2).
	if _, err := e.mgr.MoveFromSDS(spaceA, "shifter.logic", 0, john, "johns.copy", false); err == nil {
		t.Error("unregistered thread retrieved from SDS")
	}
	// Mary retrieves with a notification flag.
	got, err := e.mgr.MoveFromSDS(spaceA, "shifter.logic", 0, mary, "marys.shifter", true)
	if err != nil {
		t.Fatal(err)
	}
	// The copy is visible in Mary's data scope.
	if _, err := mary.ResolveInput("marys.shifter"); err != nil {
		t.Errorf("moved object not in scope: %v", err)
	}
	_ = got
	// Randy contributes a new version: Mary's thread is notified.
	if _, err := e.mgr.MoveToSDS(randy, "shifter.logic", spaceA); err != nil {
		t.Fatal(err)
	}
	notes := mary.Notifications()
	if len(notes) != 1 || notes[0].Object != "shifter.logic" || notes[0].Space != "A" {
		t.Fatalf("notifications %v", notes)
	}
	if len(mary.Notifications()) != 0 {
		t.Error("mailbox not drained")
	}
}

func TestSDSPredicateFiltersNotifications(t *testing.T) {
	e := newEnv(t)
	randy := shifterThread(t, e)
	mary := e.mgr.NewThread("m", "mary")
	space := sds.New("B", e.store)
	space.Register(randy.ID())
	space.Register(mary.ID())
	if _, err := e.mgr.MoveToSDS(randy, "shifter.logic", space); err != nil {
		t.Fatal(err)
	}
	// Notify only when the new version is smaller (a stand-in for "the
	// new one is faster", §3.3.4.2).
	smaller := func(prev, next *oct.Object) bool {
		return prev == nil || next.Data.Size() < prev.Data.Size()
	}
	if _, err := e.mgr.MoveFromSDS(space, "shifter.logic", 0, mary, "m.shifter", true, smaller); err != nil {
		t.Fatal(err)
	}
	// Same-size contribution: predicate false, no notification.
	if _, err := e.mgr.MoveToSDS(randy, "shifter.logic", space); err != nil {
		t.Fatal(err)
	}
	if n := mary.Notifications(); len(n) != 0 {
		t.Fatalf("predicate did not filter: %v", n)
	}
}

func TestThreadImport(t *testing.T) {
	e := newEnv(t)
	randy := shifterThread(t, e)
	john := e.mgr.NewThread("john-thread", "john")
	if err := john.Import(randy); err != nil {
		t.Fatal(err)
	}
	scope, err := john.ImportedScope(randy)
	if err != nil {
		t.Fatal(err)
	}
	if !scopeHas(scope, "shifter.logic") {
		t.Error("imported scope missing objects")
	}
	// Import is unidirectional (Fig 3.11).
	if _, err := randy.ImportedScope(john); err == nil {
		t.Error("reverse import allowed")
	}
	// Continuous reflection, not a snapshot: new work shows up.
	if _, err := e.mgr.InvokeTask(randy, "PLA-generation",
		map[string]string{"Inlogic": "shifter.logic"},
		map[string]string{"Outcell": "sh.pla"}); err != nil {
		t.Fatal(err)
	}
	scope, _ = john.ImportedScope(randy)
	if !scopeHas(scope, "sh.pla") {
		t.Error("import is a snapshot, not a live view")
	}
	if err := john.Import(randy); err == nil {
		t.Error("duplicate import accepted")
	}
	if err := john.Import(john); err == nil {
		t.Error("self import accepted")
	}
}

func TestAnnotationsAndTimeIndex(t *testing.T) {
	e := newEnv(t)
	th := shifterThread(t, e)
	recs := th.SortedRecords()
	if err := th.Annotate(recs[1], "The Start of PLA Approach"); err != nil {
		t.Fatal(err)
	}
	got, ok := th.FindAnnotation("The Start of PLA Approach")
	if !ok || got != recs[1] {
		t.Error("annotation lookup failed")
	}
	if _, ok := th.FindAnnotation("nope"); ok {
		t.Error("phantom annotation")
	}
	// Time index: bucket of the first record.
	rec, ok := th.AtTime(recs[0].Time)
	if !ok || rec != recs[0] {
		t.Errorf("AtTime(first) = %v", rec)
	}
	// A query before any record returns the next closest (§5.2).
	rec, ok = th.AtTime(0)
	if !ok || rec != recs[0] {
		t.Errorf("AtTime(0) = %v", rec)
	}
	// Far future: nothing.
	if _, ok := th.AtTime(recs[1].Time + 100*HourTicks); ok {
		t.Error("future query returned a record")
	}
}

func TestMoveCursorValidation(t *testing.T) {
	e := newEnv(t)
	a := shifterThread(t, e)
	b := e.mgr.NewThread("other", "u")
	foreign := a.SortedRecords()[0]
	if err := b.MoveCursor(foreign); err == nil {
		t.Error("cursor moved to a foreign record")
	}
	if err := a.MoveCursor(nil); err != nil {
		t.Errorf("cursor to initial point failed: %v", err)
	}
	if len(a.DataScope()) != 0 {
		t.Error("initial scope not empty")
	}
}

func TestDataScopeCachingSpeedsTraversal(t *testing.T) {
	e := newEnv(t)
	th := e.mgr.NewThread("deep", "u")
	e.seed(t, "/s", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(3)))
	if _, err := e.mgr.InvokeTask(th, "create-logic-description",
		map[string]string{"Spec": "/s"}, map[string]string{"Outlogic": "d.logic"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := e.mgr.InvokeTask(th, "logic-simulator",
			map[string]string{"Inlogic": "d.logic", "Commands": "/c"},
			map[string]string{"Report": "d.report"}); err != nil {
			// Commands file missing: seed it once lazily.
			e.seed(t, "/c", oct.TypeText, oct.Text("set d0 1\nsim\n"))
			if _, err := e.mgr.InvokeTask(th, "logic-simulator",
				map[string]string{"Inlogic": "d.logic", "Commands": "/c"},
				map[string]string{"Report": "d.report"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	recs := th.SortedRecords()
	mid := recs[len(recs)/2]
	th.Stream().CacheState(mid)
	_, visited := th.Stream().ThreadState(th.Cursor())
	if visited >= len(recs) {
		t.Errorf("cache ineffective: visited %d of %d", visited, len(recs))
	}
}

func TestRecordGridPlacement(t *testing.T) {
	e := newEnv(t)
	th := shifterThread(t, e) // two records on one path
	recs := th.SortedRecords()
	if recs[0].X != 0 || recs[1].X != 1 {
		t.Errorf("linear X coords %d,%d want 0,1", recs[0].X, recs[1].X)
	}
	if recs[0].Y != recs[1].Y {
		t.Errorf("linear chain changed lanes: %d vs %d", recs[0].Y, recs[1].Y)
	}
	// A rework branch at recs[0] occupies a fresh lane at the same depth.
	if err := th.MoveCursor(recs[0]); err != nil {
		t.Fatal(err)
	}
	branch, err := e.mgr.InvokeTask(th, "PLA-generation",
		map[string]string{"Inlogic": "shifter.logic"},
		map[string]string{"Outcell": "grid.pla"})
	if err != nil {
		t.Fatal(err)
	}
	if branch.X != recs[1].X {
		t.Errorf("branch depth %d, want %d", branch.X, recs[1].X)
	}
	if branch.Y == recs[1].Y {
		t.Error("branch shares the original record's grid cell")
	}
	// Viewport consistency: records map into a lazy view and survive
	// pans/zooms (the §5.2 pipeline end to end).
	v := viewport.NewView()
	for _, r := range th.SortedRecords() {
		v.Add(r.ID, viewport.Point{X: float64(r.X), Y: float64(r.Y)})
	}
	v.Pan(50, 0)
	v.Zoom(2)
	p0, _ := v.Position(recs[0].ID)
	pb, _ := v.Position(branch.ID)
	if p0 == pb {
		t.Error("distinct records share a display position")
	}
}

func TestThreadInMultipleSpaces(t *testing.T) {
	e := newEnv(t)
	th := shifterThread(t, e)
	a := sds.New("A", e.store)
	b := sds.New("B", e.store)
	a.Register(th.ID())
	b.Register(th.ID())
	if _, err := e.mgr.MoveToSDS(th, "shifter.logic", a); err != nil {
		t.Fatal(err)
	}
	if _, err := e.mgr.MoveToSDS(th, "shifter.logic", b); err != nil {
		t.Fatal(err)
	}
	// Each space holds an independent copy under its own namespace.
	if len(a.Versions("shifter.logic")) != 1 || len(b.Versions("shifter.logic")) != 1 {
		t.Error("space contributions wrong")
	}
	if a.Versions("shifter.logic")[0].Name == b.Versions("shifter.logic")[0].Name {
		t.Error("spaces share a namespace")
	}
}
