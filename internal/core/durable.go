package core

// Durability: when Config.Durability is set, the System opens a shared
// write-ahead log and attaches it to the object store and the activity
// manager. Every committed version batch, thread lifecycle event, record
// attach, and cursor move is appended before the operation is
// acknowledged; SaveSession doubles as the checkpoint that compacts the
// log. Recover rebuilds a System from the snapshot plus the log tail
// after a crash (docs/DURABILITY.md).

import (
	"fmt"

	"papyrus/internal/obs"
	"papyrus/internal/wal"
)

// DurabilityConfig arms write-ahead logging for a System.
type DurabilityConfig struct {
	// Dir holds the log segments. Empty disables durability.
	Dir string
	// FsyncEvery is the group-commit flush interval in virtual ticks:
	// <= 1 fsyncs every append (strict commit-before-ack durability);
	// larger values batch fsyncs, trading the tail of the log for
	// throughput. Rotation, checkpointing, and Close always fsync.
	FsyncEvery int64
	// SegmentBytes rotates log segments at this size;
	// 0 selects wal.DefaultSegmentBytes.
	SegmentBytes int64
}

// openWAL opens the configured log and attaches it to the store and the
// activity manager. No-op when durability is unconfigured.
func (s *System) openWAL() error {
	d := s.cfg.Durability
	if d == nil || d.Dir == "" {
		return nil
	}
	l, err := wal.Open(wal.Options{
		Dir:          d.Dir,
		SegmentBytes: d.SegmentBytes,
		FsyncEvery:   d.FsyncEvery,
		Now:          s.Cluster.Now,
		Metrics:      s.Metrics,
		Tracer:       s.Trace,
	})
	if err != nil {
		return fmt.Errorf("core: open wal: %w", err)
	}
	s.WAL = l
	s.Store.AttachWAL(l)
	s.Activity.AttachWAL(l)
	return nil
}

// Close syncs and closes the System's write-ahead log. Terminal: store
// and activity operations fail after Close when durability is armed.
// Safe (and a no-op) on systems without durability.
func (s *System) Close() error {
	if s.WAL == nil {
		return nil
	}
	return s.WAL.Close()
}

// Recover rebuilds a System after a crash: the session snapshot in
// sessionDir (SaveSession's store.json + threads.json; "" or missing
// files mean no snapshot was ever taken) is the checkpoint, and the
// write-ahead log in cfg.Durability.Dir replays the delta since. The
// torn tail a crashed writer left behind is truncated, checkpoint
// fingerprints are verified against the restored snapshot, and the
// recovered System continues appending to the same log. The returned
// stats report how much log was read and how many trailing bytes were
// discarded.
func Recover(cfg Config, sessionDir string) (*System, wal.ReplayStats, error) {
	d := cfg.Durability
	if d == nil || d.Dir == "" {
		return nil, wal.ReplayStats{}, fmt.Errorf("core: Recover requires Config.Durability")
	}
	return restore(cfg, sessionDir, d.Dir)
}

// replayWAL replays every valid record of the log in dir through the
// store and the activity manager; wal.Replay stops cleanly at the torn
// tail.
func (s *System) replayWAL(dir string) (wal.ReplayStats, error) {
	stats, err := wal.Replay(dir, func(r wal.Record) error {
		storeApplied, err := s.Store.ReplayWALRecord(r)
		if err != nil {
			return err
		}
		actApplied, err := s.Activity.ReplayWALRecord(r)
		if err != nil {
			return err
		}
		if storeApplied || actApplied {
			s.Metrics.Inc("wal.recover.applied")
		} else {
			s.Metrics.Inc("wal.recover.skipped")
		}
		return nil
	})
	if err != nil {
		return stats, err
	}
	s.Metrics.Add("wal.recover.records", int64(stats.Records))
	s.Metrics.Add("wal.recover.segments", int64(stats.Segments))
	if s.Trace != nil {
		s.Trace.Emit(obs.Event{VT: s.Cluster.Now(), Type: obs.EvWALRecover, Name: dir,
			Args: map[string]string{
				"records":   fmt.Sprintf("%d", stats.Records),
				"segments":  fmt.Sprintf("%d", stats.Segments),
				"truncated": fmt.Sprintf("%d", stats.Truncated),
			}})
	}
	return stats, nil
}
