package activity

// Persistence: the activity manager logs thread lifecycle events
// (create/fork/cascade/join/reclaim/drop), control-stream record
// attaches, and rework cursor moves, so a crashed session's design
// threads recover alongside the object store (docs/DURABILITY.md), and
// checkpoints every thread (SaveThreads/RestoreThreads).
//
// Record attaches use history's incremental encoding (one payload per
// record, replayed through Stream.ApplyLogged). Thread manipulations
// that build whole streams at once — fork, cascade, join — are rare
// designer actions and carry the full serialized stream instead, as
// does a checkpoint entry; both install through Thread.install, and
// replay is idempotent per thread ID (an existing thread's stream is
// replaced).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"papyrus/internal/history"
	"papyrus/internal/wal"
)

// AttachWAL installs the write-ahead log thread and stream changes are
// appended to (nil detaches). Call before the manager is used.
func (m *Manager) AttachWAL(l *wal.Log) { m.wal = l }

// walThreadOp is the RecThread payload: one thread lifecycle event.
// Stream is the full persisted control stream for ops that construct one
// (fork/cascade/join/reclaim); empty for create and drop.
type walThreadOp struct {
	Op       string          `json:"op"`
	ID       int             `json:"id"`
	Name     string          `json:"name"`
	Owner    string          `json:"owner,omitempty"`
	CursorID int             `json:"cursor_id,omitempty"`
	Stream   json.RawMessage `json:"stream,omitempty"`
}

// walAttach is the RecHistoryAppend payload: one record attached to a
// thread's control stream, plus the cursor position after the attach.
type walAttach struct {
	Thread      int             `json:"thread"`
	CursorAfter int             `json:"cursor_after,omitempty"`
	Record      json.RawMessage `json:"record"`
}

// walCursor is the RecCursorMove payload: a rework cursor move.
// RecordID 0 is the initial design point. Erase marks the erasing
// variant: on replay the abandoned paths below the target are erased
// from the stream (the corresponding version hides were logged by the
// store itself).
type walCursor struct {
	Thread   int  `json:"thread"`
	RecordID int  `json:"record_id,omitempty"`
	Erase    bool `json:"erase,omitempty"`
}

// logThread appends a thread lifecycle record. withStream ops serialize
// the thread's current control stream and cursor.
func (m *Manager) logThread(op string, t *Thread, withStream bool) error {
	if m.wal == nil {
		return nil
	}
	p := walThreadOp{Op: op, ID: t.id, Name: t.name, Owner: t.owner}
	if withStream {
		var buf bytes.Buffer
		if err := t.stream.Save(&buf); err != nil {
			return err
		}
		p.Stream = buf.Bytes()
		if t.cursor != nil {
			p.CursorID = t.cursor.ID
		}
	}
	payload, err := json.Marshal(&p)
	if err != nil {
		return err
	}
	return m.wal.Append(wal.Record{Type: wal.RecThread, Payload: payload})
}

// LogReclaim durably records a destructive history-reduction pass over
// this thread (vertical/horizontal aging, iteration GC, dead-branch
// erasure — internal/reclaim) by appending the full post-prune control
// stream as a "reclaim" thread op. Replay replaces the recovered stream
// wholesale — the same idempotent full-stream path fork/cascade/join
// use — so pruned records never resurrect after a crash; the version
// hides the pass performed are logged by the store itself. No-op
// without a manager or WAL.
func (t *Thread) LogReclaim() error {
	if t.mgr == nil {
		return nil
	}
	return t.mgr.logThread("reclaim", t, true)
}

// logAttach appends a record-attach entry; called after the record is
// fully linked and placed, so the payload captures its final shape.
func (m *Manager) logAttach(t *Thread, rec *history.Record) error {
	if m.wal == nil {
		return nil
	}
	data, err := history.EncodeRecord(rec)
	if err != nil {
		return err
	}
	p := walAttach{Thread: t.id, Record: data}
	if t.cursor != nil {
		p.CursorAfter = t.cursor.ID
	}
	payload, err := json.Marshal(&p)
	if err != nil {
		return err
	}
	return m.wal.Append(wal.Record{Type: wal.RecHistoryAppend, Payload: payload})
}

// logCursor appends a cursor-move entry.
func (m *Manager) logCursor(t *Thread, rec *history.Record, erase bool) error {
	if m.wal == nil {
		return nil
	}
	p := walCursor{Thread: t.id, Erase: erase}
	if rec != nil {
		p.RecordID = rec.ID
	}
	payload, err := json.Marshal(&p)
	if err != nil {
		return err
	}
	return m.wal.Append(wal.Record{Type: wal.RecCursorMove, Payload: payload})
}

// ReplayWALRecord applies one log record during recovery. Records of
// other subsystems are ignored. Replay never re-logs and never touches
// the object store — version creations and hides recover through the
// store's own records.
func (m *Manager) ReplayWALRecord(r wal.Record) (applied bool, err error) {
	switch r.Type {
	case wal.RecThread:
		var p walThreadOp
		if err := json.Unmarshal(r.Payload, &p); err != nil {
			return false, fmt.Errorf("activity: decode thread op: %w", err)
		}
		return true, m.replayThreadOp(p)
	case wal.RecHistoryAppend:
		var p walAttach
		if err := json.Unmarshal(r.Payload, &p); err != nil {
			return false, fmt.Errorf("activity: decode record attach: %w", err)
		}
		return true, m.replayAttach(p)
	case wal.RecCursorMove:
		var p walCursor
		if err := json.Unmarshal(r.Payload, &p); err != nil {
			return false, fmt.Errorf("activity: decode cursor move: %w", err)
		}
		return true, m.replayCursor(p)
	}
	return false, nil
}

// replayThread finds or creates the thread a replayed op targets and
// gives it the op's name and owner.
func (m *Manager) replayThread(id int, name, owner string) *Thread {
	if t, ok := m.threads[id]; ok {
		t.name, t.owner = name, owner
		return t
	}
	t := &Thread{id: id, name: name, owner: owner, mgr: m, stream: history.NewStream()}
	m.threads[id] = t
	if m.nextThread < id {
		m.nextThread = id
	}
	return t
}

func (m *Manager) replayThreadOp(p walThreadOp) error {
	if p.Op == "drop" {
		delete(m.threads, p.ID)
		return nil
	}
	t := m.replayThread(p.ID, p.Name, p.Owner)
	if len(p.Stream) == 0 {
		return nil
	}
	if err := t.install(p.Stream, p.CursorID); err != nil {
		return fmt.Errorf("activity: replay thread %d op %s: %w", p.ID, p.Op, err)
	}
	return nil
}

// install adopts a persisted control stream with the cursor at record
// cursorID (0 = the initial point).
func (t *Thread) install(data json.RawMessage, cursorID int) error {
	stream, err := history.Load(bytes.NewReader(data))
	if err != nil {
		return err
	}
	var cursor *history.Record
	if cursorID != 0 {
		var ok bool
		if cursor, ok = stream.ByID(cursorID); !ok {
			return fmt.Errorf("cursor %d not in stream", cursorID)
		}
	}
	t.adopt(stream, cursor)
	return nil
}

// savedThread is one thread of a SaveThreads checkpoint. ID keeps the
// thread's identity across the checkpoint, so log records — which name
// threads by ID — replay against the restored thread.
type savedThread struct {
	ID       int             `json:"id"`
	Name     string          `json:"name"`
	Owner    string          `json:"owner"`
	CursorID int             `json:"cursor_id"`
	Stream   json.RawMessage `json:"stream"`
}

type savedThreads struct {
	Threads []savedThread `json:"threads"`
}

// SaveThreads writes every thread — ID, name, owner, cursor and full
// control stream, in ID order — as one indented JSON document.
func (m *Manager) SaveThreads(w io.Writer) error {
	var f savedThreads
	for _, t := range m.Threads() {
		var buf bytes.Buffer
		if err := t.stream.Save(&buf); err != nil {
			return fmt.Errorf("activity: save thread %q: %w", t.name, err)
		}
		st := savedThread{ID: t.id, Name: t.name, Owner: t.owner, Stream: buf.Bytes()}
		if t.cursor != nil {
			st.CursorID = t.cursor.ID
		}
		f.Threads = append(f.Threads, st)
	}
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// RestoreThreads reinstates the threads of a SaveThreads document under
// their saved IDs. Every ID must be positive and new to the manager, so
// a duplicate never silently replaces its twin. Like log replay it
// appends nothing to an attached log: the checkpoint it reads already
// covers the threads. A rejected document returns an error and may
// leave the manager partially restored.
func (m *Manager) RestoreThreads(r io.Reader) error {
	raw, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("activity: read threads: %w", err)
	}
	var f savedThreads
	if err := json.Unmarshal(raw, &f); err != nil {
		return fmt.Errorf("activity: decode threads: %w", err)
	}
	for _, st := range f.Threads {
		if st.ID <= 0 {
			return fmt.Errorf("activity: saved thread %q has ID %d, want a positive ID", st.Name, st.ID)
		}
		if _, dup := m.threads[st.ID]; dup {
			return fmt.Errorf("activity: saved thread ID %d appears twice", st.ID)
		}
		t := m.replayThread(st.ID, st.Name, st.Owner)
		if err := t.install(st.Stream, st.CursorID); err != nil {
			return fmt.Errorf("activity: restore thread %q: %w", st.Name, err)
		}
		t.touch()
		m.metrics.Inc("activity.thread.create")
	}
	return nil
}

func (m *Manager) replayAttach(p walAttach) error {
	t, ok := m.threads[p.Thread]
	if !ok {
		return fmt.Errorf("activity: replay attach: no thread %d", p.Thread)
	}
	rec, err := t.stream.ApplyLogged(p.Record)
	if err != nil {
		return err
	}
	t.indexRecord(rec)
	t.cursor = nil
	if p.CursorAfter != 0 {
		cur, ok := t.stream.ByID(p.CursorAfter)
		if !ok {
			return fmt.Errorf("activity: replay attach: cursor %d not in thread %d", p.CursorAfter, p.Thread)
		}
		t.cursor = cur
	}
	return nil
}

func (m *Manager) replayCursor(p walCursor) error {
	t, ok := m.threads[p.Thread]
	if !ok {
		return fmt.Errorf("activity: replay cursor move: no thread %d", p.Thread)
	}
	var rec *history.Record
	if p.RecordID != 0 {
		r, ok := t.stream.ByID(p.RecordID)
		if !ok {
			return fmt.Errorf("activity: replay cursor move: record %d not in thread %d", p.RecordID, p.Thread)
		}
		rec = r
	}
	t.cursor = rec
	if p.Erase {
		var kids []*history.Record
		if rec == nil {
			kids = t.stream.Roots()
		} else {
			kids = rec.Children()
		}
		for _, child := range append([]*history.Record(nil), kids...) {
			t.stream.Erase(child)
		}
	}
	return nil
}
