package activity

// Coverage for the thread checkpoint (SaveThreads / RestoreThreads),
// ReplayRecord, the observability plumbing, and the small accessors the
// multi-session runner uses.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"papyrus/internal/history"
	"papyrus/internal/obs"
	"papyrus/internal/oct"
	"papyrus/internal/task"
)

func TestManagerAccessorsAndObservability(t *testing.T) {
	e := newEnv(t)
	if e.mgr.Store() != e.store {
		t.Fatal("Store() did not return the backing store")
	}
	if got, want := e.mgr.vt(), e.store.Clock(); got != want {
		t.Fatalf("vt() without a source = %d, want store clock %d", got, want)
	}
	e.mgr.SetObservability(obs.NewRegistry(), obs.NewTracer(), func() int64 { return 42 })
	if e.mgr.vt() != 42 {
		t.Fatalf("vt() = %d, want 42 from the injected source", e.mgr.vt())
	}

	e.mgr.SetThreadBase(100)
	th := e.mgr.NewThread("based", "chiueh")
	if th.ID() != 101 {
		t.Fatalf("thread ID = %d, want 101 after SetThreadBase(100)", th.ID())
	}
	if th.LastAccess() != e.store.Clock() {
		t.Fatalf("LastAccess = %d, want store clock %d", th.LastAccess(), e.store.Clock())
	}

	other := e.mgr.NewThread("library", "chiueh")
	if err := th.Import(other); err != nil {
		t.Fatal(err)
	}
	if got := th.Imports(); len(got) != 1 || got[0] != other {
		t.Fatalf("Imports() = %v", got)
	}

	// Cursor moves: a record outside the stream is rejected; moving to
	// the initial point emits the rework trace event.
	if err := th.MoveCursor(&history.Record{ID: 9999}); err == nil {
		t.Fatal("cursor moved to a record outside the stream")
	}
	if err := th.MoveCursor(nil); err != nil {
		t.Fatalf("move to initial point: %v", err)
	}
}

// checkpointEnv builds a manager holding the shifter thread (cursor on
// its last record) and a second thread left at the initial point, and
// returns it with its SaveThreads document.
func checkpointEnv(t testing.TB) (*env, []byte) {
	e := newEnv(t)
	shifterThread(t, e)
	e.mgr.NewThread("empty", "jones")
	var buf bytes.Buffer
	if err := e.mgr.SaveThreads(&buf); err != nil {
		t.Fatal(err)
	}
	return e, buf.Bytes()
}

// TestRestoreThreads: a SaveThreads document restores into a fresh
// manager under the saved IDs, names, owners, cursors and streams, and
// re-saves to the same bytes; new threads continue past the highest
// restored ID.
func TestRestoreThreads(t *testing.T) {
	e, doc := checkpointEnv(t)
	fresh := NewManager(e.store, nil)
	if err := fresh.RestoreThreads(bytes.NewReader(doc)); err != nil {
		t.Fatalf("restore: %v", err)
	}
	want, got := e.mgr.Threads(), fresh.Threads()
	if len(got) != len(want) {
		t.Fatalf("restored %d threads, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.ID() != w.ID() || g.Name() != w.Name() || g.Owner() != w.Owner() {
			t.Errorf("thread %d = %d/%q/%q, want %d/%q/%q", i, g.ID(), g.Name(), g.Owner(), w.ID(), w.Name(), w.Owner())
		}
		if g.Stream().Len() != w.Stream().Len() {
			t.Errorf("thread %q has %d records, want %d", w.Name(), g.Stream().Len(), w.Stream().Len())
		}
		if (g.Cursor() == nil) != (w.Cursor() == nil) || (w.Cursor() != nil && g.Cursor().ID != w.Cursor().ID) {
			t.Errorf("thread %q cursor = %+v, want %+v", w.Name(), g.Cursor(), w.Cursor())
		}
		if g.LastAccess() != e.store.Clock() {
			t.Errorf("thread %q LastAccess = %d, want the store clock %d", w.Name(), g.LastAccess(), e.store.Clock())
		}
	}
	var again bytes.Buffer
	if err := fresh.SaveThreads(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), doc) {
		t.Errorf("re-saved checkpoint differs:\n%s\nvs\n%s", again.Bytes(), doc)
	}
	if next := fresh.NewThread("next", "chiueh"); next.ID() != want[len(want)-1].ID()+1 {
		t.Errorf("new thread ID = %d, want %d", next.ID(), want[len(want)-1].ID()+1)
	}
}

// TestRestoreThreadsRejectsMalformed: a non-positive or repeated thread
// ID, a cursor outside the stream, a corrupt stream and a document that
// is not JSON are errors. A repeated ID used to replace its twin
// silently, and a non-positive one used to get a fresh ID that log
// records could not name.
func TestRestoreThreadsRejectsMalformed(t *testing.T) {
	entry := func(id, cursor int, stream string) string {
		return fmt.Sprintf(`{"id":%d,"name":"t%d","owner":"o","cursor_id":%d,"stream":%s}`, id, id, cursor, stream)
	}
	const stream = `{"next_id":2,"records":[{"id":1,"task":"x"}]}`
	doc := func(entries ...string) string { return `{"threads":[` + strings.Join(entries, ",") + `]}` }
	for _, tc := range []struct {
		name, doc, wantErr string
	}{
		{"valid", doc(entry(1, 1, stream), entry(2, 0, stream)), ""},
		{"id-zero", doc(entry(0, 0, stream)), "has ID 0"},
		{"id-negative", doc(entry(-4, 0, stream)), "has ID -4"},
		{"id-twice", doc(entry(3, 0, stream), entry(3, 1, stream)), "ID 3 appears twice"},
		{"bogus-cursor", doc(entry(1, 99999, stream)), "cursor 99999 not in stream"},
		{"record-twice", doc(entry(1, 0, `{"records":[{"id":1},{"id":1}]}`)), "record 1 appears twice"},
		{"not-json", `{"threads":`, "decode threads"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewManager(oct.NewStore(), nil)
			err := m.RestoreThreads(strings.NewReader(tc.doc))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("restore: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("restore error = %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}

// FuzzThreadCheckpoint: whatever bytes arrive, RestoreThreads errors or
// succeeds — it never panics — and a successful restore re-saves to
// canonical bytes that restore and re-save to themselves.
func FuzzThreadCheckpoint(f *testing.F) {
	_, doc := checkpointEnv(f)
	f.Add(doc)
	for _, cut := range []int{0, 1, len(doc) / 3, len(doc) / 2, len(doc) - 2} {
		f.Add(doc[:cut])
	}
	f.Add([]byte(`{"threads":[{"id":0,"name":"a","owner":"","cursor_id":0,"stream":{"records":[]}}]}`))
	f.Add([]byte(`{"threads":[{"id":1,"name":"a","owner":"","cursor_id":0,"stream":{}},{"id":1,"name":"b","owner":"","cursor_id":0,"stream":{}}]}`))
	f.Add([]byte(`{"threads":[{"id":1,"name":"a","owner":"","cursor_id":1,"stream":{"records":[{"id":1},{"id":1}]}}]}`))

	save := func(t *testing.T, m *Manager) []byte {
		var buf bytes.Buffer
		if err := m.SaveThreads(&buf); err != nil {
			t.Fatalf("save after successful restore: %v", err)
		}
		return buf.Bytes()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		store := oct.NewStore()
		m := NewManager(store, nil)
		if err := m.RestoreThreads(bytes.NewReader(data)); err != nil {
			return
		}
		first := save(t, m)
		again := NewManager(store, nil)
		if err := again.RestoreThreads(bytes.NewReader(first)); err != nil {
			t.Fatalf("canonical checkpoint rejected: %v\n%s", err, first)
		}
		if second := save(t, again); !bytes.Equal(first, second) {
			t.Fatalf("re-save not canonical:\n%s\nvs\n%s", first, second)
		}
	})
}

func TestReplayRecordReruns(t *testing.T) {
	e := newEnv(t)
	th := shifterThread(t, e)
	rec := th.Cursor()
	if rec == nil {
		t.Fatal("shifter thread left no cursor")
	}

	replayed, err := e.mgr.ReplayRecord(th, rec)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if replayed.TaskName != rec.TaskName || replayed.ID == rec.ID {
		t.Fatalf("replayed = %+v, want a new record of task %q", replayed, rec.TaskName)
	}
	if th.Cursor() != replayed {
		t.Fatalf("cursor = %+v, want the replayed record", th.Cursor())
	}

	// A record whose refs no longer match the template's arity is
	// rejected rather than rebound arbitrarily.
	bad := *rec
	bad.Inputs = nil
	if _, err := e.mgr.ReplayRecord(th, &bad); err == nil || !strings.Contains(err.Error(), "arity") {
		t.Fatalf("arity mismatch error = %v", err)
	}
	bad2 := *rec
	bad2.TaskName = "no-such-task"
	if _, err := e.mgr.ReplayRecord(th, &bad2); err == nil {
		t.Fatal("replay of an unknown task succeeded")
	}
}

func TestInvokeOptionsApply(t *testing.T) {
	var inv task.Invocation
	WithOptionOverrides(map[string][]string{"S1": {"-fast"}})(&inv)
	restarted := false
	WithOnRestart(func(int, *task.Invocation) { restarted = true })(&inv)
	if inv.OptionOverrides == nil || inv.OnRestart == nil {
		t.Fatalf("options not applied: %+v", inv)
	}
	inv.OnRestart(1, &inv)
	if !restarted {
		t.Fatal("OnRestart hook did not run")
	}
}
