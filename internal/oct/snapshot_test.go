package oct

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// TestRestoreValidation: Restore rejects entries whose version is outside
// [1, 1<<31] and entries naming the same (name, version) twice, with an
// error rather than a panic or a silently double-counted byte gauge —
// alongside the older rejections of undecodable documents and payloads.
func TestRestoreValidation(t *testing.T) {
	entry := func(name string, version int64) string {
		return fmt.Sprintf(`{"name":%q,"version":%d,"type":"text","stamp":1,"visible":true,"data":"hi"}`, name, version)
	}
	doc := func(entries ...string) string {
		return `{"clock":3,"objects":[` + strings.Join(entries, ",") + `]}`
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
		{"undecodable-payload", `{"clock":1,"objects":[{"name":"/a","version":1,"type":"text","data":7}]}`, "unmarshal /a@1"},
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
