package oct

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// TestRestoreValidation: Restore rejects entries whose version is outside
// [1, 1<<31], entries naming the same (name, version) twice, and chain
// lengths out of that range or not past the chain's highest entry, with
// an error rather than a panic or a silently double-counted byte gauge —
// alongside the older rejections of undecodable documents and payloads.
func TestRestoreValidation(t *testing.T) {
	entry := func(name string, version int64) string {
		return fmt.Sprintf(`{"name":%q,"version":%d,"type":"text","stamp":1,"visible":true,"data":"hi"}`, name, version)
	}
	doc := func(entries ...string) string {
		return `{"clock":3,"objects":[` + strings.Join(entries, ",") + `]}`
	}
	chained := func(doc, chains string) string {
		return strings.TrimSuffix(doc, "}") + `,"chains":` + chains + "}"
	}
	for _, tc := range []struct {
		name    string
		snap    string
		wantErr string
	}{
		{"valid", doc(entry("/a", 1), entry("/a", 2)), ""},
		{"sparse", doc(entry("/a", 5)), ""},
		{"version-zero", doc(entry("/a", 0)), "out of range"},
		{"version-negative", doc(entry("/a", -3)), "out of range"},
		{"version-too-large", doc(entry("/a", 1<<31+1)), "out of range"},
		{"duplicate", doc(entry("/a", 1), entry("/a", 1)), "appears twice"},
		{"duplicate-after-gap", doc(entry("/a", 2), entry("/b", 1), entry("/a", 2)), "appears twice"},
		{"unknown-type", `{"clock":1,"objects":[{"name":"/a","version":1,"type":"mystery","data":"hi"}]}`, "no codec"},
		{"undecodable-payload", `{"clock":1,"objects":[{"name":"/a","version":1,"type":"text","data":7}]}`, "unmarshal snapshot entry /a@1"},
		{"chain-past-entry", chained(doc(entry("/a", 1)), `{"/a":3}`), ""},
		{"chain-without-entries", chained(doc(), `{"/gone":2}`), ""},
		{"chain-zero", chained(doc(), `{"/a":0}`), "out of range"},
		{"chain-too-long", chained(doc(), `{"/a":2147483649}`), "out of range"},
		{"chain-at-entry", chained(doc(entry("/a", 1), entry("/a", 2)), `{"/a":2}`), "not past its highest entry 2"},
		{"chain-below-entry", chained(doc(entry("/a", 4)), `{"/a":2}`), "not past its highest entry 4"},
		{"not-json", `{"clock":`, "decode snapshot"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStore()
			err := s.Restore(strings.NewReader(tc.snap))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Restore: %v", err)
				}
				if got, want := s.TotalBytes(), int64(2*s.ObjectCount()); got != want {
					t.Errorf("TotalBytes = %d, want %d", got, want)
				}
				if got, want := s.TotalWrittenBytes(), s.TotalBytes(); got != want {
					t.Errorf("TotalWrittenBytes = %d, want %d", got, want)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Restore error = %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestSnapshotKeepsTrailingHoles: a chain whose newest versions were
// removed keeps its length through Snapshot/Restore, so the next Put
// assigns the same number it would have on the live store and a
// removed version number is never reused (§3.2). Snapshots with no such
// chain carry no "chains" field, byte for byte as before.
func TestSnapshotKeepsTrailingHoles(t *testing.T) {
	live := NewStoreWithStripes(2)
	for i := 0; i < 4; i++ {
		if _, err := live.Put("/a", TypeText, Text("a"), "test"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := live.Put("/b", TypeText, Text("b"), "test"); err != nil {
		t.Fatal(err)
	}
	var plain bytes.Buffer
	if err := live.Snapshot(&plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), `"chains"`) {
		t.Fatalf("snapshot without trailing holes carries chain lengths: %s", plain.Bytes())
	}
	for _, ref := range []Ref{{"/a", 3}, {"/a", 4}, {"/b", 1}} {
		if err := live.Remove(ref); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := live.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewStoreWithStripes(4)
	if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Store{live, restored} {
		a, err := s.Put("/a", TypeText, Text("a"), "test")
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Put("/b", TypeText, Text("b"), "test")
		if err != nil {
			t.Fatal(err)
		}
		if a.Version != 5 || b.Version != 2 {
			t.Errorf("next versions after removing the chain tails = /a@%d /b@%d, want /a@5 /b@2", a.Version, b.Version)
		}
	}
}

// fuzzMaxVersion caps the versions FuzzSnapshotRestore feeds to Restore.
// The index materializes every slot below a version, so a large one is
// a memory cost, not a correctness question; TestRestoreValidation
// covers the range check itself.
const fuzzMaxVersion = 1 << 12

// FuzzSnapshotRestore: whatever bytes arrive, Restore errors or succeeds
// — it never panics — and a successful restore re-snapshots to canonical
// bytes that restore and re-snapshot to themselves.
func FuzzSnapshotRestore(f *testing.F) {
	s := NewStoreWithStripes(2)
	for _, w := range []struct {
		name string
		typ  Type
		data string
	}{
		{"/f/a", TypeText, "alpha"},
		{"/f/a", TypeText, "alpha-2"},
		{"/f/a", TypeText, "alpha-3"},
		{"/f/b", TypeStats, "area=12"},
		{"/f/c", TypeText, "é\"quoted\"\n"},
	} {
		if _, err := s.Put(w.name, w.typ, Text(w.data), "fuzz"); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Hide(Ref{Name: "/f/a", Version: 3}); err != nil {
		f.Fatal(err)
	}
	if err := s.Remove(Ref{Name: "/f/a", Version: 2}); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	for _, cut := range []int{0, 1, len(good) / 4, len(good) / 2, len(good) - 2} {
		f.Add(good[:cut])
	}
	if err := s.Remove(Ref{Name: "/f/b", Version: 1}); err != nil {
		f.Fatal(err)
	}
	var holes bytes.Buffer
	if err := s.Snapshot(&holes); err != nil {
		f.Fatal(err)
	}
	f.Add(holes.Bytes())
	f.Add([]byte(`{"clock":1,"objects":[{"name":"/x","version":0,"type":"text","data":"x"}]}`))
	f.Add([]byte(`{"clock":1,"objects":[{"name":"/x","version":1,"type":"text","data":"x"},{"name":"/x","version":1,"type":"text","data":"x"}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var probe snapshot
		if json.Unmarshal(data, &probe) == nil {
			for _, so := range probe.Objects {
				if so.Version > fuzzMaxVersion {
					t.Skip("version beyond the fuzz memory cap")
				}
			}
			for _, n := range probe.Chains {
				if n > fuzzMaxVersion {
					t.Skip("chain length beyond the fuzz memory cap")
				}
			}
		}
		s := NewStoreWithStripes(4)
		if err := s.Restore(bytes.NewReader(data)); err != nil {
			return
		}
		var first bytes.Buffer
		if err := s.Snapshot(&first); err != nil {
			t.Fatalf("snapshot after successful restore: %v", err)
		}
		again := NewStoreWithStripes(4)
		if err := again.Restore(bytes.NewReader(first.Bytes())); err != nil {
			t.Fatalf("canonical snapshot rejected: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.Snapshot(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-snapshot not canonical:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
