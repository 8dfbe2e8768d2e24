package oct

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Persistence: the dissertation keeps a persistent version of design data
// and history for inter-process communication (§5.3). The store serializes
// to a JSON snapshot; payload types register codecs so the store need not
// know about CAD representations.

// Codec serializes one payload type.
type Codec struct {
	Marshal   func(Value) ([]byte, error)
	Unmarshal func([]byte) (Value, error)
}

var (
	codecMu sync.RWMutex
	codecs  = map[Type]Codec{}
)

// RegisterCodec installs the serializer for a payload type. The cad packages
// register theirs in init functions.
func RegisterCodec(t Type, c Codec) {
	codecMu.Lock()
	defer codecMu.Unlock()
	codecs[t] = c
}

func codecFor(t Type) (Codec, bool) {
	codecMu.RLock()
	defer codecMu.RUnlock()
	c, ok := codecs[t]
	return c, ok
}

// EncodeValue marshals a payload through its registered codec. Callers that
// need a canonical byte form of a payload — the memo cache digests input
// contents with it — get exactly the bytes the snapshot and WAL would
// store, so a content fingerprint agrees with what recovery reproduces.
// Returns an error when the type has no registered codec.
func EncodeValue(t Type, v Value) ([]byte, error) {
	c, ok := codecFor(t)
	if !ok {
		return nil, fmt.Errorf("oct: no codec registered for type %q", t)
	}
	return c.Marshal(v)
}

func init() {
	RegisterCodec(TypeText, Codec{
		Marshal: func(v Value) ([]byte, error) { return json.Marshal(string(v.(Text))) },
		Unmarshal: func(b []byte) (Value, error) {
			var s string
			if err := json.Unmarshal(b, &s); err != nil {
				return nil, err
			}
			return Text(s), nil
		},
	})
	RegisterCodec(TypeStats, Codec{
		Marshal: func(v Value) ([]byte, error) { return json.Marshal(string(v.(Text))) },
		Unmarshal: func(b []byte) (Value, error) {
			var s string
			if err := json.Unmarshal(b, &s); err != nil {
				return nil, err
			}
			return Text(s), nil
		},
	})
}

type snapshotObject struct {
	Name       string          `json:"name"`
	Version    int             `json:"version"`
	Type       Type            `json:"type"`
	Creator    string          `json:"creator,omitempty"`
	Stamp      int64           `json:"stamp"`
	Visible    bool            `json:"visible"`
	LastAccess int64           `json:"last_access"`
	Data       json.RawMessage `json:"data"`
}

type snapshot struct {
	Clock   int64            `json:"clock"`
	Objects []snapshotObject `json:"objects"`
}

// Snapshot writes the full store state as one JSON document, ordered by
// name then version so the output is independent of stripe layout.
// Payload types without a registered codec cause an error rather than
// silent data loss. Snapshot locks stripes one at a time; take it at a
// quiescent point if a consistent cross-stripe cut is required (the
// shell and reclaimer both do).
func (s *Store) Snapshot(w io.Writer) error {
	snap := snapshot{Clock: s.clock.Load()}
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		var snapErr error
		st.index.Range(func(obj *Object) bool {
			c, ok := codecFor(obj.Type)
			if !ok {
				snapErr = fmt.Errorf("oct: no codec registered for type %q (object %s@%d)", obj.Type, obj.Name, obj.Version)
				return false
			}
			raw, err := c.Marshal(obj.Data)
			if err != nil {
				snapErr = fmt.Errorf("oct: marshal %s@%d: %w", obj.Name, obj.Version, err)
				return false
			}
			snap.Objects = append(snap.Objects, snapshotObject{
				Name: obj.Name, Version: obj.Version, Type: obj.Type,
				Creator: obj.Creator, Stamp: obj.Stamp, Visible: obj.visible,
				LastAccess: obj.lastAccess, Data: raw,
			})
			return true
		})
		st.mu.RUnlock()
		if snapErr != nil {
			return snapErr
		}
	}
	sort.Slice(snap.Objects, func(i, j int) bool {
		if snap.Objects[i].Name != snap.Objects[j].Name {
			return snap.Objects[i].Name < snap.Objects[j].Name
		}
		return snap.Objects[i].Version < snap.Objects[j].Version
	})
	enc := json.NewEncoder(w)
	return enc.Encode(&snap)
}

// maxRestoreVersion bounds the version numbers Restore accepts: a slot
// number is a chain position, and the index materializes every slot
// below it, so an absurd one would be an allocation bomb, not data.
const maxRestoreVersion int64 = 1 << 31

// Restore loads a snapshot into an empty store. Every entry must name a
// version in [1, 1<<31], and no (name, version) pair may appear twice:
// a duplicate would silently replace its twin while both counted
// toward the byte gauges. A rejected snapshot returns an error and may
// leave the store partially loaded.
func (s *Store) Restore(r io.Reader) error {
	raw, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("oct: read snapshot: %w", err)
	}
	var snap snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("oct: decode snapshot: %w", err)
	}
	if s.ObjectCount() != 0 {
		return fmt.Errorf("oct: Restore requires an empty store")
	}
	// An empty store can still carry accounting drift — contention from
	// earlier traffic always, and a stale bytes gauge if every version
	// was individually removed — so both reset to reflect exactly the
	// snapshot.
	s.bytes.Store(0)
	s.contention.Store(0)
	s.clock.Store(snap.Clock)
	for _, so := range snap.Objects {
		if err := s.restoreObject(so); err != nil {
			return err
		}
	}
	return nil
}

// restoreObject validates one snapshot entry, decodes it through its
// codec and places it at its recorded slot.
func (s *Store) restoreObject(so snapshotObject) error {
	if so.Version < 1 || int64(so.Version) > maxRestoreVersion {
		return fmt.Errorf("oct: snapshot entry %s@%d: version out of range [1, %d]", so.Name, so.Version, maxRestoreVersion)
	}
	c, ok := codecFor(so.Type)
	if !ok {
		return fmt.Errorf("oct: no codec registered for type %q (object %s@%d)", so.Type, so.Name, so.Version)
	}
	data, err := c.Unmarshal(so.Data)
	if err != nil {
		return fmt.Errorf("oct: unmarshal %s@%d: %w", so.Name, so.Version, err)
	}
	st := s.stripeFor(so.Name)
	s.lock(st)
	if st.index.Get(so.Name, so.Version) != nil {
		st.mu.Unlock()
		return fmt.Errorf("oct: snapshot entry %s@%d appears twice", so.Name, so.Version)
	}
	st.index.Put(&Object{
		Name: so.Name, Version: so.Version, Type: so.Type, Data: data,
		Creator: so.Creator, Stamp: so.Stamp, visible: so.Visible,
		lastAccess: so.LastAccess,
	})
	st.mu.Unlock()
	s.bytes.Add(int64(data.Size()))
	s.written.Add(int64(data.Size()))
	return nil
}
