package oct

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"papyrus/internal/obs"
)

// TestStripedStoreEquivalence replays the same seeded random operation
// history through a 1-stripe store (the historical single-lock layout) and
// the default 64-stripe store, then asserts every externally observable
// property matches: the deterministic version map, visibility of every
// version, storage accounting, and name/version enumeration. Striping is a
// locking change only; any divergence here is a bug.
func TestStripedStoreEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 12345} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			single := NewStoreWithStripes(1)
			striped := NewStoreWithStripes(64)
			if single.StripeCount() != 1 || striped.StripeCount() != 64 {
				t.Fatalf("stripe counts %d/%d, want 1/64",
					single.StripeCount(), striped.StripeCount())
			}
			replayHistory(t, seed, single)
			replayHistory(t, seed, striped)
			compareStores(t, single, striped)
		})
	}
}

// TestBackendSnapshotInterchange: a snapshot is independent of the stripe
// layout. One taken from an 8-stripe store restores into 1 and 16 stripes
// with the same version map, visibility, bytes, names and clock.
func TestBackendSnapshotInterchange(t *testing.T) {
	src := NewStoreWithStripes(8)
	replayHistory(t, 1234, src)
	var snap bytes.Buffer
	if err := src.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	for _, stripes := range []int{1, 16} {
		dest := NewStoreWithStripes(stripes)
		if err := dest.Restore(bytes.NewReader(snap.Bytes())); err != nil {
			t.Fatalf("restore into %d stripes: %v", stripes, err)
		}
		compareStores(t, src, dest)
		if dest.Clock() != src.Clock() {
			t.Fatalf("restore into %d stripes: clock %d, want %d", stripes, dest.Clock(), src.Clock())
		}
	}
}

// TestStoreObservabilityWiring: a wired store counts puts/gets in the
// registry and stamps version-create trace events with the injected
// virtual clock.
func TestStoreObservabilityWiring(t *testing.T) {
	s := NewStore()
	reg := obs.NewRegistry()
	tracer := obs.NewTracer()
	s.SetObservability(reg, tracer, func() int64 { return 42 })
	if _, err := s.Put("/obs/x", TypeText, Text("v"), "test"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(Ref{Name: "/obs/x"}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("oct.version.put"); got != 1 {
		t.Errorf("oct.version.put = %d, want 1", got)
	}
	if got := reg.Counter("oct.version.get"); got != 1 {
		t.Errorf("oct.version.get = %d, want 1", got)
	}
	events := tracer.Events()
	if len(events) != 1 || events[0].Type != obs.EvVersionCreate {
		t.Fatalf("events %+v, want one version.create", events)
	}
	if events[0].VT != 42 {
		t.Errorf("event VT %d, want 42 from the injected clock", events[0].VT)
	}
	// Without a clock, events fall back to the store's own logical clock.
	s.SetObservability(reg, tracer, nil)
	if _, err := s.Put("/obs/y", TypeText, Text("v"), "test"); err != nil {
		t.Fatal(err)
	}
	events = tracer.Events()
	if last := events[len(events)-1]; last.VT != s.Clock() {
		t.Errorf("fallback VT %d, want store clock %d", last.VT, s.Clock())
	}
}

// TestStripeContentionProbe: the contention counter starts at zero, stays
// zero under single-goroutine use, and survives a concurrent hammering of
// one stripe (the value itself is scheduling-dependent, which is exactly
// why it lives outside the metrics registry).
func TestStripeContentionProbe(t *testing.T) {
	s := NewStore()
	if got := s.StripeContention(); got != 0 {
		t.Fatalf("fresh store contention %d", got)
	}
	if _, err := s.Put("/c/x", TypeText, Text("v"), "test"); err != nil {
		t.Fatal(err)
	}
	if got := s.StripeContention(); got != 0 {
		t.Errorf("uncontended puts counted as contention: %d", got)
	}
	// Force one contended acquisition deterministically: hold the stripe's
	// lock, start a Put against it, and wait for the TryLock miss to be
	// counted before letting the Put through.
	st := s.stripeFor("/c/x")
	st.mu.Lock()
	done := make(chan error, 1)
	go func() {
		_, err := s.Put("/c/x", TypeText, Text("v2"), "test")
		done <- err
	}()
	for s.StripeContention() == 0 {
		runtime.Gosched()
	}
	st.mu.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := s.StripeContention(); got != 1 {
		t.Errorf("contention %d, want exactly 1", got)
	}
	// And a concurrent hammering of one stripe stays correct regardless of
	// how much contention it happens to record.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if _, err := s.Put("/c/x", TypeText, Text("v"), "test"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := s.LatestVersion("/c/x"); got != 2002 {
		t.Errorf("latest version %d, want 2002", got)
	}
}

// replayHistory applies 2000 pseudo-random operations to the store. The
// name pool is small enough that versions stack up and hide/remove/txn
// operations frequently hit live objects.
func replayHistory(t *testing.T, seed int64, s *Store) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, 24)
	for i := range names {
		names[i] = fmt.Sprintf("/prop/cell%02d", i)
	}
	pick := func() string { return names[rng.Intn(len(names))] }
	randRef := func() Ref {
		name := pick()
		// Version 0 = latest; otherwise a version that may or may not exist.
		return Ref{Name: name, Version: rng.Intn(6)}
	}
	for op := 0; op < 2000; op++ {
		switch rng.Intn(10) {
		case 0, 1, 2: // direct put
			data := Text(fmt.Sprintf("payload-%d-%d", seed, op))
			if _, err := s.Put(pick(), TypeText, data, "prop"); err != nil {
				t.Fatalf("op %d: put: %v", op, err)
			}
		case 3, 4: // transaction: a few puts + maybe a hide, commit or abort
			txn := s.Begin()
			for i := 0; i < 1+rng.Intn(3); i++ {
				data := Text(fmt.Sprintf("txn-%d-%d-%d", seed, op, i))
				if _, err := txn.Put(pick(), TypeText, data, "prop"); err != nil {
					t.Fatalf("op %d: txn put: %v", op, err)
				}
			}
			if rng.Intn(2) == 0 {
				_ = txn.Hide(randRef()) // missing ref is not an error
			}
			if rng.Intn(4) == 0 {
				txn.Abort()
			} else if _, err := txn.Commit(); err != nil {
				t.Fatalf("op %d: commit: %v", op, err)
			}
		case 5: // hide whatever the ref resolves to
			_ = s.Hide(randRef())
		case 6: // unhide
			_ = s.Unhide(randRef())
		case 7: // remove a specific version if it exists
			name := pick()
			if latest := s.LatestVersion(name); latest > 0 {
				_ = s.Remove(Ref{Name: name, Version: 1 + rng.Intn(latest)})
			}
		case 8: // reads only bump access metadata, excluded from the map
			_, _ = s.Get(randRef())
		case 9:
			_, _ = s.Peek(randRef())
		}
	}
}

func compareStores(t *testing.T, a, b *Store) {
	t.Helper()
	if got, want := b.VersionMapText(), a.VersionMapText(); got != want {
		t.Fatalf("version maps diverge:\n--- 1 stripe ---\n%s--- 64 stripes ---\n%s", want, got)
	}
	if a.TotalBytes() != b.TotalBytes() {
		t.Fatalf("TotalBytes %d vs %d", a.TotalBytes(), b.TotalBytes())
	}
	if a.ObjectCount() != b.ObjectCount() {
		t.Fatalf("ObjectCount %d vs %d", a.ObjectCount(), b.ObjectCount())
	}
	namesA, namesB := a.Names(), b.Names()
	if len(namesA) != len(namesB) {
		t.Fatalf("Names length %d vs %d", len(namesA), len(namesB))
	}
	for i, name := range namesA {
		if namesB[i] != name {
			t.Fatalf("Names[%d] %q vs %q", i, name, namesB[i])
		}
		if la, lb := a.LatestVersion(name), b.LatestVersion(name); la != lb {
			t.Fatalf("%s: LatestVersion %d vs %d", name, la, lb)
		}
		for _, obj := range a.Versions(name) {
			ref := Ref{Name: name, Version: obj.Version}
			va, errA := a.Visible(ref)
			vb, errB := b.Visible(ref)
			if (errA == nil) != (errB == nil) || va != vb {
				t.Fatalf("%s: Visible %v/%v vs %v/%v", ref, va, errA, vb, errB)
			}
		}
	}
}

// TestTxnStripes pins the stripe-footprint surface the batch scheduler
// builds commit waves from: sorted, deduplicated, covering both staged
// writes and staged hides, and usable before Commit.
func TestTxnStripes(t *testing.T) {
	s := NewStoreWithStripes(8)
	seed, err := s.Put("/seed", TypeText, Text("v"), "test")
	if err != nil {
		t.Fatal(err)
	}

	txn := s.Begin()
	if got := txn.Stripes(); len(got) != 0 {
		t.Fatalf("empty txn has stripe footprint %v", got)
	}
	for _, name := range []string{"/a", "/b", "/a"} { // repeat name: same stripe twice
		if _, err := txn.Put(name, TypeText, Text("v"), "test"); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Hide(Ref{Name: seed.Name, Version: seed.Version}); err != nil {
		t.Fatal(err)
	}
	if got := txn.HideCount(); got != 1 {
		t.Fatalf("HideCount = %d, want 1", got)
	}
	stripes := txn.Stripes()
	if len(stripes) == 0 || len(stripes) > 3 {
		t.Fatalf("footprint %v, want 1..3 unique stripes for {/a, /b, /seed}", stripes)
	}
	for i := range stripes {
		if stripes[i] < 0 || stripes[i] >= 8 {
			t.Fatalf("stripe %d out of range [0,8)", stripes[i])
		}
		if i > 0 && stripes[i] <= stripes[i-1] {
			t.Fatalf("footprint %v not strictly sorted", stripes)
		}
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestBackendConcurrentSmoke hammers the store from parallel goroutines
// under the stripe locks — overlapping and disjoint names, puts, reads,
// and transactions — and checks the single-assignment invariant held.
// Run under -race this is the index's locking-discipline proof. The "map"
// subtest is named for the index type the stripes hold.
func TestBackendConcurrentSmoke(t *testing.T) {
	t.Run("map", func(t *testing.T) {
		s := NewStore()
		const goroutines = 4
		const perG = 300
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				private := fmt.Sprintf("/smoke/own%d", g)
				for i := 0; i < perG; i++ {
					if _, err := s.Put("/smoke/shared", TypeText, Text("s"), "smoke"); err != nil {
						t.Error(err)
						return
					}
					txn := s.Begin()
					if _, err := txn.Put(private, TypeText, Text(fmt.Sprintf("p%d", i)), "smoke"); err != nil {
						t.Error(err)
						return
					}
					if _, err := txn.Commit(); err != nil {
						t.Error(err)
						return
					}
					_, _ = s.Get(Ref{Name: "/smoke/shared"})
					_ = s.Chain("/smoke/shared", 1, 0)
				}
			}()
		}
		wg.Wait()
		if got := s.LatestVersion("/smoke/shared"); got != goroutines*perG {
			t.Errorf("shared chain %d, want %d", got, goroutines*perG)
		}
		for g := 0; g < goroutines; g++ {
			name := fmt.Sprintf("/smoke/own%d", g)
			if got := s.LatestVersion(name); got != perG {
				t.Errorf("%s chain %d, want %d", name, got, perG)
			}
		}
	})
}
