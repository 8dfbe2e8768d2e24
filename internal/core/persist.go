package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"papyrus/internal/wal"
)

// Session persistence: the dissertation keeps design data and the history
// persistently so the activity manager, the reclamation process, and later
// sessions share one durable state (§5.3). SaveSession/LoadSession extend
// that to the whole environment: the object store snapshots through the
// oct codecs and every thread through the activity manager's checkpoint
// document. LoadSession and Recover restore that checkpoint through one
// path (restore below); only Recover replays a log on top of it.

const (
	storeFile   = "store.json"
	threadsFile = "threads.json"
)

// SaveSession writes the store and all threads under dir.
func (s *System) SaveSession(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// Reclamation composes with checkpoint compaction: when the
	// background reclaimer is armed, run one full sweep first so the
	// snapshot — and every recovery from it — never carries versions
	// already past their grace period (docs/RECLAIM.md).
	if s.cfg.SweepEvery > 0 && s.Reclaimer != nil {
		if _, err := s.Reclaimer.Sweep(0); err != nil {
			return fmt.Errorf("core: pre-checkpoint sweep: %w", err)
		}
	}
	var storeBuf bytes.Buffer
	if err := s.Store.Snapshot(&storeBuf); err != nil {
		return fmt.Errorf("core: snapshot store: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, storeFile), storeBuf.Bytes(), 0o644); err != nil {
		return err
	}
	var threadBuf bytes.Buffer
	if err := s.Activity.SaveThreads(&threadBuf); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, threadsFile), threadBuf.Bytes(), 0o644); err != nil {
		return err
	}
	// The snapshot is the checkpoint (docs/DURABILITY.md): compact the
	// write-ahead log against it. No-op without durability.
	return s.Store.Checkpoint()
}

// LoadSession builds a fresh System from cfg and restores a saved session
// into it: Recover without a log. The simulated cluster restarts at
// virtual time zero (processes do not survive sessions — the
// dissertation explicitly leaves crash recovery of in-flight work out of
// scope). With durability armed, the (possibly fresh) log is anchored to
// the loaded state by a checkpoint record carrying the restored store's
// fingerprint, making the log a valid delta on top of this snapshot.
func LoadSession(cfg Config, dir string) (*System, error) {
	s, _, err := restore(cfg, dir, "")
	if err != nil {
		return nil, err
	}
	if err := s.Store.Checkpoint(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// restore is the one checkpoint restore path. It builds a System with
// the log detached — nothing restored or replayed may re-append — and
// restores the session checkpoint in sessionDir ("" for none). With a
// walDir it then replays that log on top; a missing checkpoint file is
// an empty snapshot there, since a crash may predate the first
// SaveSession. Inference and the memo cache are then re-derived from
// the restored history, and the configured log is opened for appends.
func restore(cfg Config, sessionDir, walDir string) (*System, wal.ReplayStats, error) {
	var stats wal.ReplayStats
	bare := cfg
	bare.Durability = nil
	s, err := New(bare)
	if err != nil {
		return nil, stats, err
	}
	s.cfg.Durability = cfg.Durability
	if sessionDir != "" {
		if err := s.restoreCheckpoint(sessionDir, walDir != ""); err != nil {
			return nil, stats, err
		}
	}
	if walDir != "" {
		if stats, err = s.replayWAL(walDir); err != nil {
			return nil, stats, err
		}
	}
	s.rederive()
	if err := s.openWAL(); err != nil {
		return nil, stats, err
	}
	return s, stats, nil
}

// restoreCheckpoint restores store.json and threads.json from dir into
// the fresh system; threads keep their saved IDs so a log tail can name
// them. With missingOK a missing file restores nothing.
func (s *System) restoreCheckpoint(dir string, missingOK bool) error {
	for _, f := range []struct {
		name    string
		restore func([]byte) error
	}{
		{storeFile, func(b []byte) error { return s.Store.Restore(bytes.NewReader(b)) }},
		{threadsFile, func(b []byte) error { return s.Activity.RestoreThreads(bytes.NewReader(b)) }},
	} {
		data, err := os.ReadFile(filepath.Join(dir, f.name))
		if missingOK && os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return fmt.Errorf("core: read session %s: %w", f.name, err)
		}
		if err := f.restore(data); err != nil {
			return fmt.Errorf("core: restore session %s: %w", f.name, err)
		}
	}
	return nil
}

// rederive rebuilds the data derived from the restored design history:
// every step is re-fed to the inference engine (Ch. 6: the history
// subsumes the metadata — types, relationships, the ADG), and the memo
// cache, which keeps no log of its own, is re-keyed from every cleanly
// completed step so replays after a restart are still hits.
func (s *System) rederive() {
	if s.Inference != nil {
		for _, t := range s.Activity.Threads() {
			for _, rec := range t.Stream().Records() {
				for _, step := range rec.Steps {
					s.Inference.ObserveStep(step)
				}
			}
		}
	}
	s.WarmMemo()
}
