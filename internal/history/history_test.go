package history

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"papyrus/internal/oct"
)

func rec(task string, outs ...string) *Record {
	r := &Record{TaskName: task}
	for _, o := range outs {
		r.Outputs = append(r.Outputs, oct.Ref{Name: o, Version: 1})
	}
	return r
}

// linearStream builds r1 -> r2 -> ... -> rn.
func linearStream(n int) (*Stream, []*Record) {
	s := NewStream()
	var recs []*Record
	var prev *Record
	for i := 1; i <= n; i++ {
		r := rec(fmt.Sprintf("t%d", i), fmt.Sprintf("o%d", i))
		s.Append(r, prev)
		recs = append(recs, r)
		prev = r
	}
	return s, recs
}

func TestAppendLinear(t *testing.T) {
	s, recs := linearStream(3)
	if s.Len() != 3 {
		t.Fatalf("len %d", s.Len())
	}
	if len(s.Roots()) != 1 || s.Roots()[0] != recs[0] {
		t.Error("root wrong")
	}
	fr := s.Frontier()
	if len(fr) != 1 || fr[0] != recs[2] {
		t.Errorf("frontier %v", fr)
	}
	if recs[1].Parents()[0] != recs[0] || recs[1].Children()[0] != recs[2] {
		t.Error("links wrong")
	}
}

func TestBranchingAndFrontier(t *testing.T) {
	s, recs := linearStream(3)
	// Rework: branch from recs[0].
	b := rec("alt", "alt1")
	s.Append(b, recs[0])
	fr := s.Frontier()
	if len(fr) != 2 {
		t.Fatalf("frontier %d, want 2", len(fr))
	}
	if len(recs[0].Children()) != 2 {
		t.Errorf("children of branch point: %d", len(recs[0].Children()))
	}
}

func TestThreadState(t *testing.T) {
	s, recs := linearStream(4)
	state, visited := s.ThreadState(recs[2])
	if len(state) != 3 {
		t.Errorf("state size %d, want 3", len(state))
	}
	if visited != 3 {
		t.Errorf("visited %d, want 3", visited)
	}
	if !state[oct.Ref{Name: "o2", Version: 1}] {
		t.Error("o2 missing from state")
	}
	if state[oct.Ref{Name: "o4", Version: 1}] {
		t.Error("o4 in state of earlier point")
	}
	empty, v := s.ThreadState(nil)
	if len(empty) != 0 || v != 0 {
		t.Error("initial state not empty")
	}
}

func TestThreadStateIncludesInputs(t *testing.T) {
	s := NewStream()
	r := rec("t", "out")
	r.Inputs = []oct.Ref{{Name: "ext", Version: 2}}
	s.Append(r, nil)
	state, _ := s.ThreadState(r)
	if !state[oct.Ref{Name: "ext", Version: 2}] {
		t.Error("input missing from thread state")
	}
}

func TestThreadStateCaching(t *testing.T) {
	s, recs := linearStream(10)
	s.CacheState(recs[7])
	if !recs[7].Cached() {
		t.Fatal("cache flag off")
	}
	state, visited := s.ThreadState(recs[9])
	if len(state) != 10 {
		t.Errorf("state size %d", len(state))
	}
	// Only records 9 and 10 are traversed; 8's cache stops the walk.
	if visited != 2 {
		t.Errorf("visited %d with cache, want 2", visited)
	}
	s.DropCache(recs[7])
	_, visited = s.ThreadState(recs[9])
	if visited != 10 {
		t.Errorf("visited %d without cache, want 10", visited)
	}
}

func TestInsertBefore(t *testing.T) {
	s, recs := linearStream(3)
	n := rec("inserted", "mid")
	if _, err := s.InsertBefore(n, recs[0], recs[1]); err != nil {
		t.Fatal(err)
	}
	if recs[0].Children()[0] != n || n.Children()[0] != recs[1] {
		t.Error("splice wrong")
	}
	state, _ := s.ThreadState(recs[2])
	if !state[oct.Ref{Name: "mid", Version: 1}] {
		t.Error("inserted record's output missing downstream")
	}
	// Insert at root.
	n2 := rec("newroot", "nr")
	if _, err := s.InsertBefore(n2, nil, recs[0]); err != nil {
		t.Fatal(err)
	}
	if s.Roots()[0] != n2 {
		t.Error("root splice wrong")
	}
	if _, err := s.InsertBefore(rec("bad"), recs[2], recs[0]); err == nil {
		t.Error("non-adjacent insert accepted")
	}
}

func TestInsertBeforeUpdatesCaches(t *testing.T) {
	s, recs := linearStream(4)
	s.CacheState(recs[3])
	n := rec("late", "lateout")
	if _, err := s.InsertBefore(n, recs[1], recs[2]); err != nil {
		t.Fatal(err)
	}
	// The cached state downstream must now include lateout (§5.3).
	state, visited := s.ThreadState(recs[3])
	if visited != 0 {
		t.Errorf("visited %d, want 0 (cached at target)", visited)
	}
	if !state[oct.Ref{Name: "lateout", Version: 1}] {
		t.Error("cached state missed inserted record's output")
	}
}

func TestAttachPoint(t *testing.T) {
	s, recs := linearStream(3)
	// Path 0 from recs[0] walks to the chain end.
	parent, before := s.AttachPoint(recs[0], 0)
	if parent != recs[2] || before != nil {
		t.Errorf("AttachPoint = %v,%v", parent, before)
	}
	// Path index past the children starts a new branch (rework).
	parent, before = s.AttachPoint(recs[0], 1)
	if parent != recs[0] || before != nil {
		t.Errorf("rework AttachPoint = %v,%v", parent, before)
	}
	// A branch appearing mid-path forces an insert before the branching
	// record: recs[2] gains two children; walking path 0 from recs[0]
	// stops at recs[2]'s parent side.
	s.Append(rec("x1"), recs[2])
	s.Append(rec("x2"), recs[2])
	parent, before = s.AttachPoint(recs[0], 0)
	if parent != recs[1] || before != recs[2] {
		t.Errorf("branch AttachPoint = %v,%v, want parent=recs[1] before=recs[2]", parent, before)
	}
	// From the initial point of an empty stream.
	s2 := NewStream()
	parent, before = s2.AttachPoint(nil, 0)
	if parent != nil || before != nil {
		t.Error("empty stream AttachPoint wrong")
	}
}

func TestErase(t *testing.T) {
	s, recs := linearStream(5)
	removed := s.Erase(recs[2])
	if len(removed) != 3 {
		t.Errorf("removed %d, want 3", len(removed))
	}
	if s.Len() != 2 {
		t.Errorf("len %d, want 2", s.Len())
	}
	fr := s.Frontier()
	if len(fr) != 1 || fr[0] != recs[1] {
		t.Errorf("frontier %v", fr)
	}
}

func TestCut(t *testing.T) {
	s, recs := linearStream(4)
	s.CacheState(recs[3])
	s.Cut(recs[1])
	if s.Len() != 3 {
		t.Errorf("len %d", s.Len())
	}
	// recs[0] now links directly to recs[2].
	if recs[0].Children()[0] != recs[2] || recs[2].Parents()[0] != recs[0] {
		t.Error("cut relink wrong")
	}
	if recs[3].Cached() {
		t.Error("downstream cache not invalidated by Cut")
	}
	state, _ := s.ThreadState(recs[3])
	if state[oct.Ref{Name: "o2", Version: 1}] {
		t.Error("cut record's output still in state")
	}
	// Cutting a root.
	s.Cut(recs[0])
	if len(s.Roots()) != 1 || s.Roots()[0] != recs[2] {
		t.Errorf("roots after root cut: %v", s.Roots())
	}
}

func TestAncestors(t *testing.T) {
	s, recs := linearStream(4)
	anc := s.Ancestors(recs[3])
	if len(anc) != 3 || !anc[recs[0]] || anc[recs[3]] {
		t.Errorf("ancestors wrong: %d", len(anc))
	}
}

func TestMergeParents(t *testing.T) {
	// A record with two parents (thread join).
	s := NewStream()
	a := s.Append(rec("a", "oa"), nil)
	b := s.Append(rec("b", "ob"), nil)
	j := rec("join", "oj")
	s.Append(j, a)
	j.parents = append(j.parents, b)
	b.children = append(b.children, j)
	state, _ := s.ThreadState(j)
	if !state[oct.Ref{Name: "oa", Version: 1}] || !state[oct.Ref{Name: "ob", Version: 1}] {
		t.Error("join state missing a branch")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s, recs := linearStream(4)
	s.Append(rec("branch", "ob"), recs[1])
	s.CacheState(recs[3])
	recs[2].Annotation = "The Start of PLA Approach"
	recs[2].Steps = []StepRecord{{Name: "Espresso", Tool: "espresso", ExitStatus: 0}}

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != s.Len() {
		t.Fatalf("len %d, want %d", loaded.Len(), s.Len())
	}
	r3, ok := loaded.ByID(recs[2].ID)
	if !ok || r3.Annotation != "The Start of PLA Approach" {
		t.Errorf("annotation lost: %+v", r3)
	}
	if len(r3.Steps) != 1 || r3.Steps[0].Tool != "espresso" {
		t.Errorf("steps lost: %v", r3.Steps)
	}
	r4, _ := loaded.ByID(recs[3].ID)
	if !r4.Cached() {
		t.Error("cache flag lost")
	}
	// Structure: same frontier count.
	if len(loaded.Frontier()) != len(s.Frontier()) {
		t.Error("frontier mismatch after reload")
	}
	stateA, _ := s.ThreadState(recs[3])
	stateB, _ := loaded.ThreadState(r4)
	if len(stateA) != len(stateB) {
		t.Errorf("thread state mismatch: %d vs %d", len(stateA), len(stateB))
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not json")); err == nil {
		t.Error("bad json accepted")
	}
	if _, err := Load(bytes.NewBufferString(`{"next_id":1,"records":[{"id":1,"task":"x","parent_ids":[99]}]}`)); err == nil {
		t.Error("dangling parent accepted")
	}
	// Two records sharing an ID: ByID could reach only one of them and
	// parent links would be ambiguous.
	if _, err := Load(bytes.NewBufferString(`{"records":[{"id":1},{"id":1}]}`)); err == nil || !strings.Contains(err.Error(), "record 1 appears twice") {
		t.Errorf("duplicate record IDs: err = %v, want a duplicate error", err)
	}
}
