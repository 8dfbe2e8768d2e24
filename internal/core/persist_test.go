package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"papyrus/internal/cad/logic"
	"papyrus/internal/memo"
	"papyrus/internal/obs"
	"papyrus/internal/oct"
)

func TestSessionSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := newSystem(t, Config{Nodes: 2})
	if _, err := s.ImportObject("/spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(4))); err != nil {
		t.Fatal(err)
	}
	th := s.NewThread("Shifter", "chiueh")
	rec, err := s.Invoke(th, "create-logic-description",
		map[string]string{"Spec": "/spec"},
		map[string]string{"Outlogic": "sh.logic"})
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Annotate(rec, "session checkpoint"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Invoke(th, "PLA-generation",
		map[string]string{"Inlogic": "sh.logic"},
		map[string]string{"Outcell": "sh.pla"}); err != nil {
		t.Fatal(err)
	}

	if err := s.SaveSession(dir); err != nil {
		t.Fatal(err)
	}

	restored, err := LoadSession(Config{Nodes: 2}, dir)
	if err != nil {
		t.Fatal(err)
	}
	threads := restored.Activity.Threads()
	if len(threads) != 1 {
		t.Fatalf("threads %d, want 1", len(threads))
	}
	rt := threads[0]
	if rt.Name() != "Shifter" || rt.Owner() != "chiueh" {
		t.Errorf("thread identity %q/%q", rt.Name(), rt.Owner())
	}
	if rt.Stream().Len() != th.Stream().Len() {
		t.Errorf("stream len %d, want %d", rt.Stream().Len(), th.Stream().Len())
	}
	// The cursor survived by record ID.
	if rt.Cursor() == nil || rt.Cursor().TaskName != "PLA-generation" {
		t.Errorf("cursor %+v", rt.Cursor())
	}
	// Annotations survived.
	if _, ok := rt.FindAnnotation("session checkpoint"); !ok {
		t.Error("annotation lost")
	}
	// The data scope resolves against the restored store.
	ref, err := rt.ResolveInput("sh.pla")
	if err != nil {
		t.Fatal(err)
	}
	obj, err := restored.Store.Get(ref)
	if err != nil || obj.Type != oct.TypeLayout {
		t.Errorf("restored object %v %v", obj, err)
	}
	// Inference was reconstructed from the persisted history.
	if typ, ok := restored.Inference.TypeOf(ref); !ok || typ != oct.TypeLayout {
		t.Errorf("restored inference type %s ok=%v", typ, ok)
	}
	// Continue working in the restored session.
	if _, err := restored.Invoke(rt, "place-pads",
		map[string]string{"Incell": "sh.pla"},
		map[string]string{"Outcell": "sh.padded"}); err != nil {
		t.Fatalf("continuing restored session: %v", err)
	}
}

func TestLoadSessionMissingDir(t *testing.T) {
	if _, err := LoadSession(Config{}, t.TempDir()+"/nope"); err == nil {
		t.Error("missing session dir accepted")
	}
}

// TestLoadSessionCorruptThreads: a threads.json that is not JSON, an
// entry with a non-positive thread ID, two entries sharing an ID, and a
// stream with two records sharing an ID are load errors. The last three
// used to load: the non-positive ID got a fresh one, the second twin
// replaced the first, and the duplicate record made a two-record stream.
func TestLoadSessionCorruptThreads(t *testing.T) {
	const stream = `{"next_id":2,"records":[{"id":1,"task":"x"}]}`
	entry := func(id int, stream string) string {
		return fmt.Sprintf(`{"id":%d,"name":"t","owner":"o","cursor_id":0,"stream":%s}`, id, stream)
	}
	doc := func(entries ...string) string { return `{"threads":[` + strings.Join(entries, ",") + `]}` }
	for _, tc := range []struct{ name, threads string }{
		{"not-json", "not json"},
		{"id-zero", doc(entry(0, stream))},
		{"id-negative", doc(entry(-1, stream))},
		{"id-twice", doc(entry(1, stream), entry(1, stream))},
		{"record-twice", doc(entry(1, `{"next_id":2,"records":[{"id":1},{"id":1}]}`))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := newSystem(t, Config{Nodes: 1}).SaveSession(dir); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "threads.json"), []byte(tc.threads), 0o644); err != nil {
				t.Fatal(err)
			}
			if s, err := LoadSession(Config{Nodes: 1}, dir); err == nil {
				t.Fatalf("LoadSession accepted %s (%d threads)", tc.threads, len(s.Activity.Threads()))
			}
		})
	}
}

// TestLoadSessionWarmsMemo: LoadSession rebuilds an armed memo cache from
// the loaded history the way Recover does, so replaying a saved record
// in the loaded session is all hits. A load that skipped the warm-up
// left the fresh cache empty and the replay missed on every step.
func TestLoadSessionWarmsMemo(t *testing.T) {
	dir := t.TempDir()
	s := newSystem(t, Config{Nodes: 2, Memo: memo.NewCache()})
	if _, err := s.ImportObject("/spec", oct.TypeBehavioral, oct.Text(logic.ShifterBehavior(4))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Invoke(s.NewThread("Shifter", "chiueh"), "create-logic-description",
		map[string]string{"Spec": "/spec"},
		map[string]string{"Outlogic": "sh.logic"}); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSession(dir); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	loaded, err := LoadSession(Config{Nodes: 2, Memo: memo.NewCache(), Metrics: reg}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if warmed := reg.Counter("memo.warm"); warmed == 0 {
		t.Fatal("memo.warm = 0 after LoadSession with an armed cache")
	}
	th := loaded.Activity.Threads()[0]
	if _, err := loaded.Activity.ReplayRecord(th, th.Cursor()); err != nil {
		t.Fatal(err)
	}
	if misses := reg.Counter("memo.miss"); misses != 0 {
		t.Errorf("replay of the saved record missed %d times, want 0", misses)
	}
	if hits := reg.Counter("memo.hit"); hits == 0 {
		t.Error("replay of the saved record produced no memo hits")
	}
}
