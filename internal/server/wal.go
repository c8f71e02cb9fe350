package server

import (
	"fmt"

	"trajmatch/internal/wal"
)

// The engine's durability story in one place:
//
// With Options.WALDir set, every accepted mutation is appended to the
// write-ahead log before it is applied and acknowledged only after
// wal.Commit — under the default SyncAlways policy, after an fsync. A
// reboot loads the latest snapshot and replays the log on top, so a
// kill -9 (or, under SyncAlways, a power cut) between snapshots loses
// no acknowledged mutation.
//
// Ordering: every mutation runs one step, Engine.mutate, with or
// without a log: under e.mutMu it checks the op's preconditions, appends
// its record and applies it. Checking under the apply's lock means the
// log only holds ops that apply cleanly (replay has no reject path) and
// no two ops claim one ID; holding it across {append, apply} makes WAL
// order apply order, so replay reproduces exactly the sequence the live
// engine executed. The fsync wait (Commit) happens after mutMu is
// released, so concurrent mutations batch into shared group commits
// instead of serialising on the disk.
//
// Snapshot coordination: SaveSnapshot takes a wal.Barrier under mutMu
// before streaming the shards. Every record appended before the barrier
// is therefore applied, hence contained in the snapshot, and the
// pre-barrier segments can be deleted once the manifest commits.
// Replay is idempotent (insert skips present IDs, delete of an absent
// ID is a no-op) and pre-barrier segments are removed oldest first, so
// an interrupted truncation leaves a contiguous suffix of the applied
// record sequence whose replay over the snapshot converges back to the
// snapshotted state.

// attachWAL opens the log configured in e.opt and replays it into the
// freshly booted engine; boot calls it once, between resolving the
// sketch parameters and building the sketches. It also builds the
// live-ingest state (initStream) — before replay, so replayed append
// records land in the track buffer; with a nil WALDir only that
// happens.
func (e *Engine) attachWAL() error {
	e.initStream()
	if e.opt.WALDir == "" {
		return nil
	}
	l, err := wal.Open(wal.Options{
		Dir:    e.opt.WALDir,
		FS:     e.fs,
		Policy: e.opt.WALSync,
	})
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	if err := l.Replay(e.replayRecord); err != nil {
		l.Close()
		return fmt.Errorf("server: wal replay: %w", err)
	}
	if err := e.checkReplayGaps(); err != nil {
		l.Close()
		return fmt.Errorf("server: wal replay: %w", err)
	}
	e.wal = l
	return nil
}

// checkReplayGaps verifies that every append record skipped for
// starting past its track's recovered prefix (replayRecord's
// interrupted-truncation shape) was made whole by a later full-state
// carry-over record — or that the track was sealed, which the snapshot
// then covers. A leftover gap means acknowledged points are genuinely
// unrecoverable, and the boot must refuse rather than serve the track
// with a hole.
func (e *Engine) checkReplayGaps() error {
	for id, end := range e.replayGaps {
		if e.Lookup(id) != nil {
			continue
		}
		if e.buffer.Len(id) >= end {
			continue
		}
		return fmt.Errorf("track %d has an unrepaired gap (recovered %d points, records reached %d)",
			id, e.buffer.Len(id), end)
	}
	e.replayGaps = nil
	return nil
}

// replayRecord applies one recovered WAL record. Replay bypasses the
// public Insert/Delete — the log must not be re-appended to, and the
// public mutation counters must reflect live traffic, not recovery.
func (e *Engine) replayRecord(rec wal.Record) error {
	if err := e.requireMutable(); err != nil {
		// The log holds mutations but a loaded backend cannot accept
		// them: booting with a different -metrics set than the log was
		// written under. Refusing is the only move that cannot lose data.
		return err
	}
	switch rec.Op {
	case wal.OpInsert:
		if e.Lookup(rec.ID) != nil {
			return nil // already in the snapshot (or an earlier record)
		}
		return e.applyInsert(rec.Traj)
	case wal.OpDelete:
		e.applyDelete(rec.ID)
		return nil
	case wal.OpAppend:
		// Appends replay offset-based: a record overlapping what the
		// track already holds (a snapshot carry-over record followed by
		// the re-applied live records) applies only its novel suffix, so
		// replay is idempotent and a recovered track is exactly the
		// logged prefix. A record STARTING past what the track holds is
		// the interrupted-truncation shape — segments are removed oldest
		// first, so the log may open mid-track, with the snapshot's
		// full-state carry-over record (durable before any truncation)
		// further on to repair the head. The delta is skipped and the
		// repair obligation recorded; a boot where it never arrives
		// fails (checkReplayGaps) rather than serving a track with a
		// hole.
		if e.Lookup(rec.ID) != nil {
			return nil // the track was sealed later in the log or snapshot
		}
		pts := rec.Traj.Points
		have := e.buffer.Len(rec.ID)
		if rec.Offset+len(pts) <= have {
			return nil // fully applied already
		}
		if rec.Offset > have {
			if e.replayGaps == nil {
				e.replayGaps = make(map[int]int)
			}
			if end := rec.Offset + len(pts); end > e.replayGaps[rec.ID] {
				e.replayGaps[rec.ID] = end
			}
			return nil
		}
		e.applyAppend(rec.ID, rec.Traj.Label, pts[have-rec.Offset:])
		return nil
	case wal.OpSeal:
		if e.Lookup(rec.ID) != nil {
			return nil // already sealed (snapshot or an earlier record)
		}
		if !e.buffer.Has(rec.ID) {
			return fmt.Errorf("seal of unknown track %d", rec.ID)
		}
		if end, ok := e.replayGaps[rec.ID]; ok && e.buffer.Len(rec.ID) < end {
			return fmt.Errorf("seal of track %d with unrepaired gap (have %d points, need %d)",
				rec.ID, e.buffer.Len(rec.ID), end)
		}
		return e.applySeal(rec.ID)
	}
	return fmt.Errorf("unknown op %v", rec.Op)
}

// Close releases the engine's durable resources: it stops the
// background sealer, so that no goroutine outlives the engine, then
// flushes and fsyncs the write-ahead log (under every sync policy) and
// closes it. Queries still work after Close; mutations fail. Engines
// without a WAL stop at the sealer.
func (e *Engine) Close() error {
	e.stopSealer()
	if e.wal == nil {
		return nil
	}
	if err := e.wal.Close(); err != nil {
		return fmt.Errorf("server: wal close: %w", err)
	}
	return nil
}
