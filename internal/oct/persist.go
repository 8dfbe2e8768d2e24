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
	// Chains holds the length of each chain whose highest slot is a
	// hole — its newest versions were removed or reclaimed — so a
	// restored chain keeps its next version number (§3.2). Omitted when
	// no chain ends in a hole.
	Chains map[string]int `json:"chains,omitempty"`
}

// Snapshot writes the full store state as one JSON document, ordered by
// name then version so the output is independent of stripe layout.
// Payload types without a registered codec cause an error rather than
// silent data loss. Snapshot locks stripes one at a time; take it at a
// quiescent point if a consistent cross-stripe cut is required (the
// shell and reclaimer both do).
func (s *Store) Snapshot(w io.Writer) error {
	snap := snapshot{Clock: s.clock.Load(), Chains: make(map[string]int)}
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
		st.index.HoleTails(func(name string, chainLen int) { snap.Chains[name] = chainLen })
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
// toward the byte gauges. A recorded chain length must lie in the same
// range and past the chain's highest entry. A rejected snapshot returns
// an error and may leave the store partially loaded.
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
		placed, err := s.place(Object{Name: so.Name, Version: so.Version, Type: so.Type, Creator: so.Creator,
			Stamp: so.Stamp, visible: so.Visible, lastAccess: so.LastAccess}, so.Data, "snapshot entry")
		if err != nil {
			return err
		}
		if !placed {
			return fmt.Errorf("oct: snapshot entry %s@%d appears twice", so.Name, so.Version)
		}
	}
	for name, n := range snap.Chains {
		if n < 1 || int64(n) > maxRestoreVersion {
			return fmt.Errorf("oct: snapshot chain %q has length %d, out of range [1, %d]", name, n, maxRestoreVersion)
		}
		st := s.stripeFor(name)
		if top := st.index.ChainLen(name); n <= top {
			return fmt.Errorf("oct: snapshot chain %q has length %d, not past its highest entry %d", name, n, top)
		}
		st.index.Extend(name, n)
	}
	return nil
}

// place validates one persisted version (a snapshot entry or a WAL
// write, named by src in errors), decodes its payload through the
// type's codec and puts it at its recorded slot, charging the byte
// gauges. It places nothing and reports false when the slot is already
// occupied: Restore rejects that as a duplicate, WAL replay skips it as
// covered by the snapshot.
func (s *Store) place(obj Object, raw json.RawMessage, src string) (bool, error) {
	if obj.Version < 1 || int64(obj.Version) > maxRestoreVersion {
		return false, fmt.Errorf("oct: %s %q has version %d, out of range [1, %d]", src, obj.Name, obj.Version, maxRestoreVersion)
	}
	c, ok := codecFor(obj.Type)
	if !ok {
		return false, fmt.Errorf("oct: no codec registered for type %q (object %s@%d)", obj.Type, obj.Name, obj.Version)
	}
	data, err := c.Unmarshal(raw)
	if err != nil {
		return false, fmt.Errorf("oct: unmarshal %s %s@%d: %w", src, obj.Name, obj.Version, err)
	}
	obj.Data = data
	st := s.stripeFor(obj.Name)
	s.lock(st)
	defer st.mu.Unlock()
	if st.index.Get(obj.Name, obj.Version) != nil {
		return false, nil
	}
	st.index.Put(&obj)
	s.bytes.Add(int64(data.Size()))
	s.written.Add(int64(data.Size()))
	return true, nil
}
