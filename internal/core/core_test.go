package core

import (
	"strings"
	"testing"

	"papyrus/internal/cad/logic"
	"papyrus/internal/oct"
)

func newSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEndToEndSession(t *testing.T) {
	s := newSystem(t, Config{})
	if _, err := s.ImportObject("/specs/shifter", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(4))); err != nil {
		t.Fatal(err)
	}
	th := s.NewThread("Shifter-synthesis", "chiueh")
	rec, err := s.Invoke(th, "create-logic-description",
		map[string]string{"Spec": "/specs/shifter"},
		map[string]string{"Outlogic": "shifter.logic"})
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || len(rec.Steps) != 2 {
		t.Fatalf("record %+v", rec)
	}
	// Inference observed the steps: the output's type is known.
	if s.Inference == nil {
		t.Fatal("inference engine missing")
	}
	outRef := rec.Outputs[0]
	typ, ok := s.Inference.TypeOf(outRef)
	if !ok || typ != oct.TypeLogic {
		t.Errorf("inferred type %s ok=%v", typ, ok)
	}
	// Rendering works.
	view := s.RenderThread(th)
	if !strings.Contains(view, "create-logic-description") {
		t.Errorf("thread render:\n%s", view)
	}
	scope := s.RenderScope(th)
	if !strings.Contains(scope, "shifter.logic") {
		t.Errorf("scope render:\n%s", scope)
	}
}

func TestTableIPapyrusSatisfiesAll(t *testing.T) {
	s := newSystem(t, Config{})
	rows := s.TableI()
	if len(rows) != 14 {
		t.Fatalf("rows %d, want 14", len(rows))
	}
	last := rows[len(rows)-1]
	if last.Name != "Papyrus" || !last.Implemented {
		t.Fatalf("last row %+v", last)
	}
	f := last.F
	if !(f.ToolEncapsulation && f.ToolNavigation && f.DesignExploration &&
		f.DataEvolution && f.ContextManagement && f.CooperativeWork && f.DistributedArchitecture) {
		t.Errorf("Papyrus row not all-Yes: %+v", f)
	}
	implemented := 0
	for _, r := range rows {
		if r.Implemented {
			implemented++
		}
	}
	if implemented != 3 { // Powerframe, VOV, Papyrus
		t.Errorf("implemented rows %d, want 3", implemented)
	}
}

func TestSpacesAreMemoized(t *testing.T) {
	s := newSystem(t, Config{})
	a := s.Space("A")
	if s.Space("A") != a {
		t.Error("Space not memoized")
	}
	if s.Space("B") == a {
		t.Error("distinct spaces share identity")
	}
}

func TestConfigDefaults(t *testing.T) {
	s := newSystem(t, Config{})
	if s.Cluster.NodeCount() != 4 {
		t.Errorf("default nodes %d, want 4", s.Cluster.NodeCount())
	}
	s2 := newSystem(t, Config{Nodes: 2, DisableInference: true})
	if s2.Inference != nil {
		t.Error("inference not disabled")
	}
	if s2.Cluster.NodeCount() != 2 {
		t.Error("node count ignored")
	}
}

// TestStoreBackendRejected: the object store has one index, so New
// accepts only the empty and "map" StoreBackend values.
func TestStoreBackendRejected(t *testing.T) {
	for _, ok := range []string{"", "map"} {
		if _, err := New(Config{StoreBackend: ok}); err != nil {
			t.Errorf("StoreBackend %q rejected: %v", ok, err)
		}
	}
	for _, bad := range []string{"btree", "MAP", "bogus"} {
		if _, err := New(Config{StoreBackend: bad}); err == nil {
			t.Errorf("StoreBackend %q accepted", bad)
		}
	}
}

func TestExtraTemplates(t *testing.T) {
	s := newSystem(t, Config{ExtraTemplates: map[string]string{
		"Custom": "task Custom {A} {Out}\nstep S {A} {Out} {bdsyn -o Out A}\n",
	}})
	if _, err := s.ImportObject("/x", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(2))); err != nil {
		t.Fatal(err)
	}
	th := s.NewThread("t", "u")
	if _, err := s.Invoke(th, "Custom",
		map[string]string{"A": "/x"}, map[string]string{"Out": "o"}); err != nil {
		t.Fatal(err)
	}
}

func TestReclaimerWired(t *testing.T) {
	s := newSystem(t, Config{ReclaimGrace: 0})
	ref, _ := s.ImportObject("junk", oct.TypeText, oct.Text("bytes"))
	s.Store.Hide(ref)
	st, err := s.Reclaimer.SweepObjects()
	if err != nil || st.Versions != 1 {
		t.Errorf("sweep %+v err %v", st, err)
	}
}

func TestBackgroundSweep(t *testing.T) {
	s := newSystem(t, Config{Nodes: 2, SweepEvery: 10, ReclaimGrace: 0})
	if _, err := s.ImportObject("/spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(4))); err != nil {
		t.Fatal(err)
	}
	th := s.NewThread("t", "u")
	// Running a task advances virtual time past several sweep intervals;
	// its hidden intermediates get physically reclaimed in the background.
	if _, err := s.Invoke(th, "Structure_Synthesis",
		map[string]string{"Incell": "/spec", "Musa_Command": "/cmd"},
		map[string]string{"Outcell": "o", "Cell_Statistics": "st"}); err != nil {
		// Musa command missing: import and retry once.
		if _, err2 := s.ImportObject("/cmd", oct.TypeText, oct.Text("set d0 1\nsim\n")); err2 != nil {
			t.Fatal(err2)
		}
		if _, err := s.Invoke(th, "Structure_Synthesis",
			map[string]string{"Incell": "/spec", "Musa_Command": "/cmd"},
			map[string]string{"Outcell": "o", "Cell_Statistics": "st"}); err != nil {
			t.Fatal(err)
		}
	}
	// Hide an object and run another task: the background sweep reclaims it.
	ref, _ := s.ImportObject("junk", oct.TypeText, oct.Text("bytes"))
	s.Store.Hide(ref)
	if _, err := s.Invoke(th, "PLA-generation",
		map[string]string{"Inlogic": "cell.logic#1@1"},
		map[string]string{"Outcell": "p"}); err != nil {
		// The intermediate name may differ; use the task output instead.
		if _, err := s.Invoke(th, "place-pads",
			map[string]string{"Incell": "o"},
			map[string]string{"Outcell": "padded"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Store.Get(ref); err == nil {
		t.Error("background sweep did not reclaim the hidden object")
	}
}

// TestInferenceFacades drives the Ch. 6 read-side surfaces System
// exposes — InferenceQuery's ops, OutOfDate, and Rebuild — through one
// derivation and a source edit, and checks each refuses to run without
// the inference engine.
func TestInferenceFacades(t *testing.T) {
	s := newSystem(t, Config{})
	if _, err := s.ImportObject("/specs/shifter", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(4))); err != nil {
		t.Fatal(err)
	}
	th := s.NewThread("facades", "test")
	rec, err := s.Invoke(th, "create-logic-description",
		map[string]string{"Spec": "/specs/shifter"},
		map[string]string{"Outlogic": "shifter.logic"})
	if err != nil {
		t.Fatal(err)
	}
	out := rec.Outputs[0]

	res, err := s.InferenceQuery("type", out)
	if err != nil || res.Type != oct.TypeLogic {
		t.Errorf("type query = %q, %v; want %q", res.Type, err, oct.TypeLogic)
	}
	if res, err := s.InferenceQuery("lineage", out); err != nil || len(res.Refs) == 0 {
		t.Errorf("lineage query = %v, %v; want a non-empty chain", res.Refs, err)
	}
	if _, err := s.InferenceQuery("equivalence", out); err != nil {
		t.Errorf("equivalence query: %v", err)
	}
	if res, err := s.InferenceQuery("relationships", out); err != nil || len(res.Relationships) == 0 {
		t.Errorf("relationships query = %v, %v; want the derivation edges", res.Relationships, err)
	}
	if _, err := s.InferenceQuery("type", oct.Ref{Name: "/nowhere", Version: 1}); err == nil {
		t.Error("type query on an unknown object succeeded")
	}
	if _, err := s.InferenceQuery("bogus", out); err == nil {
		t.Error("unknown query op accepted")
	}

	if stale, err := s.OutOfDate(out); err != nil || stale {
		t.Fatalf("fresh derivation OutOfDate = %v, %v", stale, err)
	}
	if _, err := s.ImportObject("/specs/shifter", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(4))); err != nil {
		t.Fatal(err)
	}
	if stale, err := s.OutOfDate(out); err != nil || !stale {
		t.Fatalf("OutOfDate after a source edit = %v, %v; want stale", stale, err)
	}
	if res, err := s.InferenceQuery("outofdate", out); err != nil || !res.OutOfDate {
		t.Errorf("outofdate query = %v, %v; want stale", res.OutOfDate, err)
	}
	rebuilt, err := s.Rebuild(out)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Name != out.Name || rebuilt.Version <= out.Version {
		t.Errorf("Rebuild produced %s, want a newer version of %s", rebuilt, out)
	}

	off := newSystem(t, Config{DisableInference: true})
	if _, err := off.InferenceQuery("type", out); err == nil {
		t.Error("InferenceQuery ran without the inference engine")
	}
	if _, err := off.OutOfDate(out); err == nil {
		t.Error("OutOfDate ran without the inference engine")
	}
	if _, err := off.Rebuild(out); err == nil {
		t.Error("Rebuild ran without the inference engine")
	}
}
