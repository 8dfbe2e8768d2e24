// Package oct implements the design object database underneath Papyrus,
// standing in for the Berkeley OCT data manager the dissertation built on
// (§1.2, §3.2). It provides:
//
//   - uniquely named, versioned design objects with single-assignment update
//     semantics: modifications never happen in place, every write creates a
//     new version whose number the store assigns (§3.2);
//   - step-level atomicity: a design step stages its writes in a transaction
//     that commits or aborts as a unit, so a CAD tool invocation is an
//     indivisible operation against the database (§3.3.1);
//   - a visibility flag per version: Papyrus "deletes" objects by making
//     them invisible, and a background reclaimer physically removes versions
//     that stay invisible past a grace period (§3.3.1, §5.4);
//   - storage accounting, which the reclamation experiments (Fig 5.7–5.9)
//     measure.
//
// Object names follow OCT's cell:view:facet convention; versions are
// written name@version.
//
// Concurrency: the store is lock-striped. Object names hash to one of
// StripeCount buckets, each with its own RWMutex, so parallel sessions
// operating on disjoint cells never contend — the LWT model's premise that
// independent design threads interact only through single-assignment
// versions (Ch. 3) holds all the way down to the lock granularity. The
// global clock and byte accounting are atomics; a transaction commit locks
// exactly the stripes its writes touch, in stripe order, so concurrent
// commits cannot deadlock. Version numbers stay per-name sequential, which
// makes the logical content (the version map) independent of interleaving
// whenever writers touch disjoint names.
//
// One Store is the shared design database of everything above it: the
// N concurrent sessions of core.RunSessions, and — in the served
// architecture — one papyrusd engine shard, whose tenants rely on
// exactly that disjoint-names property for isolation (docs/SERVER.md).
package oct

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"papyrus/internal/obs"
	"papyrus/internal/wal"
)

// Type classifies a design object's representation, e.g. "behavioral",
// "logic", "pla", "layout", "text". Types are inferred by the metadata
// inference layer from the creating tool's semantics description (Ch. 6).
type Type string

// Common object types produced by the simulated CAD suite.
const (
	TypeBehavioral Type = "behavioral"
	TypeLogic      Type = "logic"
	TypePLA        Type = "pla"
	TypeLayout     Type = "layout"
	TypeText       Type = "text"
	TypeStats      Type = "statistics"
	TypeUntyped    Type = "untyped"
)

// Value is a design object payload. Implementations live in the cad
// packages (logic networks, PLAs, layouts) and in this package (Text).
// Payloads are immutable by convention: single-assignment semantics means a
// tool deriving a new version deep-copies before mutating.
type Value interface {
	// Size estimates the payload's storage footprint in bytes; the
	// storage-management experiments account with it.
	Size() int
}

// Text is a plain-text payload (command files, statistics reports).
type Text string

// Size implements Value.
func (t Text) Size() int { return len(t) }

// Object is one immutable version of a design object.
type Object struct {
	Name    string
	Version int
	Type    Type
	Data    Value
	// Creator optionally records the design step that produced this
	// version (tool name), set by the task manager's history recording.
	Creator string
	// Stamp is the store clock value at creation time.
	Stamp int64
	// visible is cleared when the object is logically deleted (§3.3.1).
	visible bool
	// lastAccess is bumped on reads; reclamation policies consult it.
	lastAccess int64
}

// Ref names one version of an object. Version 0 means "latest visible".
type Ref struct {
	Name    string
	Version int
}

// ParseRef splits "name@version" into a Ref; a bare name yields Version 0.
func ParseRef(s string) (Ref, error) {
	at := strings.LastIndexByte(s, '@')
	if at < 0 {
		return Ref{Name: s}, nil
	}
	v, err := strconv.Atoi(s[at+1:])
	if err != nil || v < 0 {
		return Ref{}, fmt.Errorf("oct: bad version in object reference %q", s)
	}
	return Ref{Name: s[:at], Version: v}, nil
}

// String formats the reference; version 0 prints as the bare name.
func (r Ref) String() string {
	if r.Version == 0 {
		return r.Name
	}
	return r.Name + "@" + strconv.Itoa(r.Version)
}

// DefaultStripes is the stripe count of NewStore: enough buckets that 64
// concurrent sessions on disjoint cells rarely share a lock, small enough
// that whole-store scans (Names, reclamation) stay cheap.
const DefaultStripes = 64

// stripe is one lock-striped bucket of the object database. The index
// maps (name, version) to object versions (index.go), and the stripe
// lock serializes every index call.
type stripe struct {
	mu    sync.RWMutex
	index *mapIndex
}

// Store is a versioned design object database. It is safe for concurrent
// use: parallel design steps and parallel sessions share one Store, and
// operations on names in different stripes proceed without contention.
type Store struct {
	stripes []stripe
	mask    uint32
	clock   atomic.Int64
	bytes   atomic.Int64
	// written accumulates every payload byte ever stored (reclaim.go);
	// unlike bytes it never decreases, so live/written is the E17 ratio.
	written atomic.Int64
	// contention counts write-lock acquisitions that found a stripe
	// already held. It is a scheduling-dependent probe, so it lives
	// outside the metrics registry (whose exports must be byte-identical
	// across worker counts); see StripeContention.
	contention atomic.Int64

	metrics *obs.Registry
	tracer  *obs.Tracer
	vtnow   func() int64
	// wal, when attached, receives one RecOCTCommit record per committed
	// version batch before the batch is acknowledged (durable.go).
	wal *wal.Log
}

// SetObservability installs optional metrics/trace sinks (nil = off) and
// a virtual-time source for trace stamps; when now is nil, trace events
// fall back to the store's own logical clock. internal/core wires the
// sprite cluster's clock here so store events share the task timeline.
// Call it before the store is used concurrently (it swaps bare fields).
func (s *Store) SetObservability(metrics *obs.Registry, tracer *obs.Tracer, now func() int64) {
	s.metrics = metrics
	s.tracer = tracer
	s.vtnow = now
}

// Tracing reports whether a trace sink is attached. The task manager's
// parallel apply phase consults it: commit reordering would permute
// version-create trace events, so parallel commits are gated off while
// a store tracer is live (single-system traced runs stay sequential;
// RunSessions suppresses the store tracer and gets the parallelism).
// Like SetObservability, meaningful only when observability is
// configured before concurrent use.
func (s *Store) Tracing() bool { return s.tracer != nil }

// vt returns the trace timestamp.
func (s *Store) vt() int64 {
	if s.vtnow != nil {
		return s.vtnow()
	}
	return s.clock.Load()
}

// NewStore returns an empty store with DefaultStripes lock stripes.
func NewStore() *Store { return NewStoreWithStripes(DefaultStripes) }

// NewStoreWithStripes returns an empty store with the given stripe
// count, rounded up to a power of two; n <= 0 selects DefaultStripes. A
// 1-stripe store behaves exactly like the historical single-lock store;
// the equivalence property test replays transaction histories through
// both.
func NewStoreWithStripes(n int) *Store {
	if n <= 0 {
		n = DefaultStripes
	}
	size := 1
	for size < n {
		size <<= 1
	}
	s := &Store{stripes: make([]stripe, size), mask: uint32(size - 1)}
	for i := range s.stripes {
		s.stripes[i].index = newMapIndex()
	}
	return s
}

// StripeCount returns the number of lock stripes.
func (s *Store) StripeCount() int { return len(s.stripes) }

// StripeContention returns how many write-lock acquisitions found their
// stripe already held. Deliberately not a registry metric: the value
// depends on goroutine scheduling, and registry exports must stay
// byte-identical across runs and worker counts (docs/OBSERVABILITY.md).
func (s *Store) StripeContention() int64 { return s.contention.Load() }

// stripeIndex hashes a name to its stripe (FNV-1a).
func (s *Store) stripeIndex(name string) int {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return int(h & s.mask)
}

func (s *Store) stripeFor(name string) *stripe { return &s.stripes[s.stripeIndex(name)] }

// lock write-locks a stripe, counting contended acquisitions.
func (s *Store) lock(st *stripe) {
	if st.mu.TryLock() {
		return
	}
	s.contention.Add(1)
	st.mu.Lock()
}

// tick advances and returns the store clock.
func (s *Store) tick() int64 { return s.clock.Add(1) }

// Clock returns the current store clock value.
func (s *Store) Clock() int64 { return s.clock.Load() }

// Put creates a new version of name with the given type and payload and
// returns it. The version number is assigned by the store (§3.2: "version
// numbers are managed by the system"). With a WAL attached, the version
// is logged before Put returns — still under the stripe lock, so log
// order matches version order — and a logging failure fails the Put.
func (s *Store) Put(name string, typ Type, data Value, creator string) (*Object, error) {
	if name == "" {
		return nil, fmt.Errorf("oct: empty object name")
	}
	if data == nil {
		return nil, fmt.Errorf("oct: nil payload for %q", name)
	}
	var raw []byte
	if s.wal != nil {
		var err error
		if raw, err = marshalValue(typ, data); err != nil {
			return nil, err
		}
	}
	st := s.stripeFor(name)
	s.lock(st)
	defer st.mu.Unlock()
	obj, err := s.putOn(st, name, typ, data, creator)
	if err != nil {
		return nil, err
	}
	if s.wal != nil {
		if err := s.appendCommit(walCommit{Writes: []walWrite{walWriteFor(obj, raw)}}); err != nil {
			return nil, err
		}
	}
	return obj, nil
}

// putOn appends a version under a held stripe lock. The index assigns
// the version number (ChainLen+1 — §3.2: "version numbers are managed
// by the system").
func (s *Store) putOn(st *stripe, name string, typ Type, data Value, creator string) (*Object, error) {
	obj := &Object{
		Name:    name,
		Type:    typ,
		Data:    data,
		Creator: creator,
		Stamp:   s.tick(),
		visible: true,
	}
	obj.lastAccess = obj.Stamp
	st.index.Append(obj)
	s.bytes.Add(int64(data.Size()))
	s.written.Add(int64(data.Size()))
	s.metrics.Inc("oct.version.put")
	if s.tracer != nil {
		s.tracer.Emit(obs.Event{
			VT: s.vt(), Type: obs.EvVersionCreate,
			Name: Ref{Name: obj.Name, Version: obj.Version}.String(),
			Args: map[string]string{"creator": creator, "type": string(typ)},
		})
	}
	return obj, nil
}

// Get returns the referenced object. Version 0 resolves to the most recent
// visible version. Reads bump the access stamp.
func (s *Store) Get(ref Ref) (*Object, error) {
	st := s.stripeFor(ref.Name)
	s.lock(st)
	defer st.mu.Unlock()
	obj, err := lookupOn(st, ref)
	if err != nil {
		return nil, err
	}
	obj.lastAccess = s.tick()
	s.metrics.Inc("oct.version.get")
	return obj, nil
}

// Peek returns the referenced object without bumping its access stamp.
func (s *Store) Peek(ref Ref) (*Object, error) {
	st := s.stripeFor(ref.Name)
	st.mu.RLock()
	defer st.mu.RUnlock()
	return lookupOn(st, ref)
}

func lookupOn(st *stripe, ref Ref) (*Object, error) {
	if st.index.ChainLen(ref.Name) == 0 {
		return nil, fmt.Errorf("oct: no object named %q", ref.Name)
	}
	if ref.Version == 0 {
		if obj := st.index.LatestVisible(ref.Name); obj != nil {
			return obj, nil
		}
		return nil, fmt.Errorf("oct: no visible version of %q", ref.Name)
	}
	obj := st.index.Get(ref.Name, ref.Version)
	if obj == nil {
		return nil, fmt.Errorf("oct: no version %d of %q", ref.Version, ref.Name)
	}
	return obj, nil
}

// Exists reports whether any version of name exists (visible or not).
func (s *Store) Exists(name string) bool {
	st := s.stripeFor(name)
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.index.Latest(name) != nil
}

// LatestVersion returns the highest existing version number of name, or 0.
func (s *Store) LatestVersion(name string) int {
	st := s.stripeFor(name)
	st.mu.RLock()
	defer st.mu.RUnlock()
	if obj := st.index.Latest(name); obj != nil {
		return obj.Version
	}
	return 0
}

// Versions returns all existing versions of name in ascending order.
func (s *Store) Versions(name string) []*Object {
	return s.Chain(name, 1, 0)
}

// Chain returns the live versions of name with lo <= version <= hi in
// ascending order; hi <= 0 means unbounded. This is the version-chain
// range scan the history and lineage queries use.
func (s *Store) Chain(name string, lo, hi int) []*Object {
	st := s.stripeFor(name)
	st.mu.RLock()
	defer st.mu.RUnlock()
	var out []*Object
	st.index.Scan(name, lo, hi, func(obj *Object) bool {
		out = append(out, obj)
		return true
	})
	return out
}

// Names returns the sorted names of all objects with at least one version.
func (s *Store) Names() []string {
	var names []string
	seen := make(map[string]bool)
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		st.index.Range(func(obj *Object) bool {
			if !seen[obj.Name] {
				seen[obj.Name] = true
				names = append(names, obj.Name)
			}
			return true
		})
		st.mu.RUnlock()
	}
	sort.Strings(names)
	return names
}

// Hide logically deletes a version: it stays on disk but stops resolving as
// "latest" and becomes a candidate for reclamation (§3.3.1).
func (s *Store) Hide(ref Ref) error {
	return s.setVisible(ref, false)
}

// Unhide reverses Hide before the reclaimer has physically deleted the
// version.
func (s *Store) Unhide(ref Ref) error {
	return s.setVisible(ref, true)
}

func (s *Store) setVisible(ref Ref, v bool) error {
	st := s.stripeFor(ref.Name)
	s.lock(st)
	defer st.mu.Unlock()
	obj, err := lookupOn(st, ref)
	if err != nil {
		return err
	}
	obj.visible = v
	obj.lastAccess = s.tick()
	if s.wal != nil {
		return s.appendCommit(walCommit{Sets: []walSet{{Name: obj.Name, Version: obj.Version, Visible: v}}})
	}
	return nil
}

// Visible reports the visibility flag of a specific version.
func (s *Store) Visible(ref Ref) (bool, error) {
	st := s.stripeFor(ref.Name)
	st.mu.RLock()
	defer st.mu.RUnlock()
	obj, err := lookupOn(st, ref)
	if err != nil {
		return false, err
	}
	return obj.visible, nil
}

// Remove physically deletes a version, releasing its storage. Version
// numbers of other versions are unaffected (a hole remains), preserving
// existing references.
func (s *Store) Remove(ref Ref) error {
	st := s.stripeFor(ref.Name)
	s.lock(st)
	defer st.mu.Unlock()
	if ref.Version == 0 {
		return fmt.Errorf("oct: Remove requires an explicit version: %q", ref.Name)
	}
	obj := st.index.Delete(ref.Name, ref.Version)
	if obj == nil {
		return fmt.Errorf("oct: no version %d of %q", ref.Version, ref.Name)
	}
	s.bytes.Add(-int64(obj.Data.Size()))
	if s.wal != nil {
		return s.appendCommit(walCommit{Removes: []Ref{{Name: ref.Name, Version: ref.Version}}})
	}
	return nil
}

// InvisibleOlderThan returns refs of invisible versions whose last access
// stamp is at or below the cutoff — the reclaimer's candidate set.
func (s *Store) InvisibleOlderThan(cutoff int64) []Ref {
	var out []Ref
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		st.index.Range(func(v *Object) bool {
			if !v.visible && v.lastAccess <= cutoff {
				out = append(out, Ref{Name: v.Name, Version: v.Version})
			}
			return true
		})
		st.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Version < out[j].Version
	})
	return out
}

// TotalBytes returns the store's accounted payload size.
func (s *Store) TotalBytes() int64 { return s.bytes.Load() }

// ObjectCount returns the number of live versions across all names.
func (s *Store) ObjectCount() int {
	n := 0
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		n += st.index.Len()
		st.mu.RUnlock()
	}
	return n
}

// VersionMapText renders the store's logical content deterministically:
// one line per live version — "name@version type visible=bool bytes=N" —
// sorted by name then version, followed by a totals line. Two stores with
// the same logical history produce identical text regardless of stripe
// count, lock interleaving, or worker count; the equivalence property
// test and the scale benchmark (EXPERIMENTS.md E11) fingerprint with it.
func (s *Store) VersionMapText() string {
	type line struct {
		name    string
		version int
		text    string
	}
	var lines []line
	live := 0
	var bytes int64
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		st.index.Range(func(v *Object) bool {
			live++
			bytes += int64(v.Data.Size())
			lines = append(lines, line{
				name:    v.Name,
				version: v.Version,
				text: fmt.Sprintf("%s@%d %s visible=%v bytes=%d",
					v.Name, v.Version, v.Type, v.visible, v.Data.Size()),
			})
			return true
		})
		st.mu.RUnlock()
	}
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].name != lines[j].name {
			return lines[i].name < lines[j].name
		}
		return lines[i].version < lines[j].version
	})
	var b strings.Builder
	for _, l := range lines {
		b.WriteString(l.text)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "total versions=%d bytes=%d\n", live, bytes)
	return b.String()
}
