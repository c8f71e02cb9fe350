package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"trajmatch/internal/backend"
	"trajmatch/internal/faultfs"
	"trajmatch/internal/par"
	"trajmatch/internal/sketch"
	"trajmatch/internal/traj"
	"trajmatch/internal/trajtree"
)

// A snapshot is a directory holding one file per shard — the shard's
// tree in its one on-disk encoding (trajtree.Save, TRARENA1) — plus a
// JSON manifest recording the format version, the shard count, the tree
// options, per-shard sizes and checksums, and which metric backends were
// persisted. Persistence is a capability: only the tree-backed EDwP set
// is written (the flat DTW/EDR indexes are cheap, deterministic
// functions of the corpus with no build state worth saving), so the
// manifest's Metrics list records exactly what the directory can restore
// by itself — LoadSnapshotSpecs rebuilds any other requested metric from
// the loaded corpus.
//
// The shard count is load-bearing: trajectories are hash-placed
// (router.go), so the files only mean what they say under the shard
// count they were written with — loading therefore adopts the manifest's
// count regardless of what the caller's Options ask for, and checks that
// every loaded member hashes to the shard whose file held it.
//
// Saves are two-phase and fsync before every rename: each shard is
// written to a temp file which is fsynced and only then renamed into
// place, the manifest goes last, and the directory itself is fsynced
// after the renames — a crash at any point leaves either the previous
// snapshot or the new one readable, never a file whose rename survived
// but whose bytes did not. The residual risk is a crash inside the
// rename loop, which leaves new-epoch shard files under the old
// manifest. Every shard file ends in a checksum of its own content, so
// it vouches for itself independently of the manifest: a file that
// verifies but whose checksum is not the manifest's is intact and from
// another save. With a WAL configured the loader accepts such a
// directory and replay reconciles the epochs; without one it is
// rejected. A file whose own checksum fails is bit rot, always a hard
// error. Every file operation routes through the engine's faultfs.FS
// (the mmap boot excepted: a mapping cannot be fault-injected), so the
// crash-recovery harness can kill a save at each failpoint and assert
// the reboot invariant.

// snapshotVersion is bumped whenever the manifest layout, the per-shard
// file format, or the placement hash changes incompatibly. Version 5
// holds one shard-NNNN.arena file per shard (arena format 3: each live
// member once in the slabs, no overlay sections) and one checksum array;
// directories of earlier versions are rejected with a clear error
// (re-save from a live engine to upgrade).
const snapshotVersion = 5

// manifestName is the manifest file inside a snapshot directory.
const manifestName = "MANIFEST.json"

// SnapshotManifestName is the manifest's file name inside every
// snapshot directory, exported for the cluster snapshot-shipping
// client, which must fetch it first (for coverage) and commit it last
// (writing it is the transaction's commit point).
const SnapshotManifestName = manifestName

// snapCRC is the CRC32C (Castagnoli) table of the manifest envelope.
var snapCRC = crc32.MakeTable(crc32.Castagnoli)

type snapshotManifest struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
	// Owned, when present, marks a partial snapshot written by a
	// partitioned shard-node engine: the global shard indices the
	// directory holds files for, ascending. The per-shard arrays (Sizes,
	// Checksums) then carry one entry per owned shard in this order, and
	// the shard files keep their global names (shard-0003.arena for
	// global shard 3) — byte-identical to the same shard's file in a full
	// snapshot, which is what makes snapshot shipping between deployment
	// shapes possible. Absent means the directory covers every shard.
	Owned       []int            `json:"owned,omitempty"`
	TreeOptions trajtree.Options `json:"tree_options"`
	Sizes       []int            `json:"sizes"`
	// Checksums holds, per shard file, the CRC32C the file itself ends
	// in (over every byte before it). The loader verifies the file
	// against its own trailer before interpreting a byte, then compares
	// the trailer with this list to tell whether the file belongs to
	// this manifest's save.
	Checksums []uint32 `json:"checksums"`
	// Metrics lists the metric backends the directory holds files for,
	// in persist order. Only tree-backed metrics are persistable today,
	// so the list is ["edwp"]; it is recorded (rather than implied) so a
	// loader can tell which requested metrics it must rebuild instead.
	Metrics []string `json:"metrics,omitempty"`
	// Sketch, when present, records the resolved prefilter parameters
	// the engine was serving with. The sketch indexes themselves are
	// not persisted: they are a deterministic function of (corpus,
	// parameters), so the loader rebuilds bit-identical prefilter state
	// from the loaded corpus — provided the parameters are these
	// recorded, already-resolved values rather than re-derived ones (a
	// re-derived CellSize could differ if the corpus changed since the
	// parameters were fixed). Like the shard count, the manifest wins
	// over the loading Options. Absent means the prefilter was off.
	Sketch  *sketch.Params `json:"sketch,omitempty"`
	SavedAt time.Time      `json:"saved_at"`
}

// manifestEnvelope is what MANIFEST.json actually holds: the manifest
// plus a CRC32C guarding it. The checksum is computed over the
// manifest's compact json.Marshal encoding and verified over the stored
// manifest compacted again (json.Compact undoes the envelope's
// indentation exactly), so any damage to the manifest's bytes — a flipped
// digit in a size, a damaged field name, even one whose value is the
// zero value the loader would default to — fails verification, while
// insignificant whitespace does not have to survive byte-exactly. A
// field that a later build no longer has (the tree options'
// RebuildRatio) is checked like any other and then ignored.
type manifestEnvelope struct {
	CRC32C   uint32          `json:"crc32c"`
	Manifest json.RawMessage `json:"manifest"`
}

// coveredShards returns the global shard indices the manifest's
// per-shard arrays describe, ascending: Owned for a partial snapshot,
// all of 0..Shards-1 otherwise.
func (m snapshotManifest) coveredShards() []int {
	if len(m.Owned) > 0 {
		return m.Owned
	}
	out := make([]int, m.Shards)
	for i := range out {
		out[i] = i
	}
	return out
}

// coveredPos returns the per-shard array position of global shard g, or
// -1 when the manifest does not cover it.
func (m snapshotManifest) coveredPos(g int) int { return slices.Index(m.coveredShards(), g) }

// arenaFileName names global shard i's file.
func arenaFileName(i int) string { return fmt.Sprintf("shard-%04d.arena", i) }

// parseArenaFileName inverts arenaFileName, rejecting near-misses like
// temp files (the round-trip check catches trailing garbage Sscanf
// would forgive).
func parseArenaFileName(name string) (int, bool) {
	var i int
	if n, err := fmt.Sscanf(name, "shard-%d.arena", &i); n != 1 || err != nil {
		return 0, false
	}
	if arenaFileName(i) != name {
		return 0, false
	}
	return i, true
}

// SnapshotDir returns the configured snapshot directory ("" when
// snapshotting is not configured).
func (e *Engine) SnapshotDir() string { return e.opt.SnapshotDir }

// persistentSet returns the loaded metric set whose backends are
// tree-backed — the one a snapshot can persist — or nil.
func (e *Engine) persistentSet() *metricSet {
	for _, ms := range e.sets {
		if _, ok := treeOf(ms.shards[0].be); ok {
			return ms
		}
	}
	return nil
}

// SaveSnapshot writes a sharded snapshot of the engine's persistent
// metric set to dir (created if needed); it fails with ErrNotSupported
// when no loaded backend is persistent. Each shard is serialised under
// its read lock, so queries keep flowing and updates stall only on the
// shard currently being written; consequently the snapshot is per-shard
// consistent but, under a live write load, not a single global point in
// time. Quiesce writers first if global point-in-time semantics matter.
// (With a WAL attached the recovered state is still exact: mutations
// landing during the save are replayed idempotently on top.)
// Concurrent SaveSnapshot calls serialise against each other, so
// overlapping POST /v1/snapshot requests cannot interleave shard files and
// manifests from different saves.
//
// With a write-ahead log attached, a committed save also truncates the
// log: a barrier taken before the shards are written guarantees every
// pre-barrier record is contained in the snapshot, so the pre-barrier
// segments are removed (oldest first) once the manifest rename lands.
func (e *Engine) SaveSnapshot(dir string) error {
	if dir == "" {
		return fmt.Errorf("server: snapshot: no directory configured")
	}
	ms := e.persistentSet()
	if ms == nil {
		return fmt.Errorf("server: snapshot: no persistent backend loaded (metrics %v): %w",
			e.Metrics(), backend.ErrNotSupported)
	}
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	if err := e.fs.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("server: snapshot: %w", err)
	}
	// The WAL barrier comes first, under mutMu: with no mutation between
	// append and apply in flight, every record in a pre-barrier segment
	// is applied, hence included in the shard files below — which is
	// exactly the condition for truncating those segments once the
	// manifest commits.
	barrier := -1
	if e.wal != nil {
		e.mutMu.Lock()
		b, berr := e.wal.Barrier()
		if berr == nil {
			// The shard files below carry only sealed state; live tracks
			// exist solely in pre-barrier append records the truncation is
			// about to drop. Re-log each live track's full state into the
			// post-barrier segment — still under mutMu, so no append can
			// interleave — and replay's offset-based idempotency absorbs
			// the overlap with any later records.
			berr = e.relogLiveTracks()
		}
		e.mutMu.Unlock()
		if berr != nil {
			return fmt.Errorf("server: snapshot: %w", berr)
		}
		barrier = b
	}
	shards := ms.shards
	man := snapshotManifest{
		Version:     snapshotVersion,
		Shards:      e.place.total,
		TreeOptions: shards[0].options(),
		Sizes:       make([]int, len(shards)),
		Checksums:   make([]uint32, len(shards)),
		Metrics:     []string{ms.name},
		SavedAt:     time.Now().UTC(),
	}
	if e.place.partitioned() {
		man.Owned = e.place.ownedShards()
	}
	man.Sketch = e.sketchParams
	// Phase 1: write every shard to a temp file and fsync it. No final
	// name is touched yet, so any failure here (disk full, I/O error,
	// crash) leaves the previous snapshot fully intact. The fixed .tmp
	// names are safe under snapMu and let an interrupted save's litter
	// be swept by the next one.
	final := func(i int) string { return filepath.Join(dir, arenaFileName(e.place.globalOf(i))) } // global names
	cleanup := func() {
		for i := range shards {
			_ = e.fs.Remove(final(i) + ".tmp")
		}
	}
	err := par.ForErr(e.opt.Workers, len(shards), func(i int) error {
		return writeFileSync(e.fs, final(i)+".tmp", func(w io.Writer) (err error) {
			bw := bufio.NewWriterSize(w, 1<<20)
			if man.Sizes[i], man.Checksums[i], err = shards[i].snapshot(bw); err != nil {
				return err
			}
			return bw.Flush()
		})
	})
	if err != nil {
		cleanup()
		return fmt.Errorf("server: snapshot: %w", err)
	}
	// Phase 2: every shard is on disk — rename them into place, manifest
	// last. A crash inside this loop mixes new shard files with the old
	// manifest, which the loader rejects or, with a WAL, salvages.
	for i := range shards {
		if err := e.fs.Rename(final(i)+".tmp", final(i)); err != nil {
			cleanup()
			return fmt.Errorf("server: snapshot: %w", err)
		}
	}
	rawMan, err := json.Marshal(man)
	if err != nil {
		return fmt.Errorf("server: snapshot: %w", err)
	}
	raw, err := json.MarshalIndent(manifestEnvelope{CRC32C: crc32.Checksum(rawMan, snapCRC), Manifest: rawMan}, "", "  ")
	if err != nil {
		return fmt.Errorf("server: snapshot: %w", err)
	}
	mtmp := filepath.Join(dir, manifestName+".tmp")
	if err := writeFileSync(e.fs, mtmp, func(w io.Writer) error {
		_, err := w.Write(append(raw, '\n'))
		return err
	}); err != nil {
		return fmt.Errorf("server: snapshot: %w", err)
	}
	if err := e.fs.Rename(mtmp, filepath.Join(dir, manifestName)); err != nil {
		return fmt.Errorf("server: snapshot: %w", err)
	}
	// The manifest rename commits the snapshot. What follows is
	// housekeeping: sweep stale files, make the renames durable, drop
	// the WAL segments the snapshot subsumes.
	if err := e.cleanStaleShardFiles(dir, man.coveredShards()); err != nil {
		return fmt.Errorf("server: snapshot: %w", err)
	}
	if err := e.fs.SyncDir(dir); err != nil {
		return fmt.Errorf("server: snapshot: %w", err)
	}
	if e.wal != nil {
		// The live-track carry-over records must be durable before the
		// segments holding their originals disappear.
		if err := e.wal.Sync(); err != nil {
			return fmt.Errorf("server: snapshot: %w", err)
		}
		if err := e.wal.TruncateBefore(barrier); err != nil {
			return fmt.Errorf("server: snapshot: %w", err)
		}
	}
	e.snapshots.Add(1)
	return nil
}

// writeFileSync creates name through fsys, lets write fill it, and
// fsyncs it before closing — the write half of the write-fsync-rename
// commit pattern: a renamed-but-unsynced file could survive the rename
// yet lose its bytes on power loss.
func writeFileSync(fsys faultfs.FS, name string, write func(io.Writer) error) error {
	f, err := fsys.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err = write(f); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cleanStaleShardFiles removes shard files outside the just-written
// covered set, plus any temp litter from interrupted saves. Without it,
// a save with fewer shards (or a narrower owned set) than its
// predecessor would leave orphan shard-NNNN.arena files that a human (or
// a future layout) could mistake for live data. The shard-NNNN.tree
// twins of version-2 snapshots are dead under any manifest this build
// writes, and go too.
func (e *Engine) cleanStaleShardFiles(dir string, covered []int) error {
	keep := make(map[int]bool, len(covered))
	for _, g := range covered {
		keep[g] = true
	}
	entries, err := e.fs.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		name := ent.Name()
		stale := strings.HasSuffix(name, ".tmp") ||
			(strings.HasPrefix(name, "shard-") && strings.HasSuffix(name, ".tree"))
		if idx, ok := parseArenaFileName(name); ok && !keep[idx] {
			stale = true
		}
		if !stale {
			continue
		}
		if err := e.fs.Remove(filepath.Join(dir, name)); err != nil {
			return err
		}
	}
	return nil
}

// SnapshotExists reports whether dir holds a snapshot manifest.
func SnapshotExists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return dir != "" && err == nil
}

// readManifest reads and verifies MANIFEST.json: version, envelope
// checksum, and internal consistency (shard count versus the sizes and
// checksums arrays). Every failure is a clean, specific error — a
// corrupt directory must never panic or half-load.
func readManifest(fsys faultfs.FS, dir string) (snapshotManifest, error) {
	raw, err := faultfs.ReadFile(fsys, filepath.Join(dir, manifestName))
	if err != nil {
		return snapshotManifest{}, err
	}
	var env manifestEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return snapshotManifest{}, fmt.Errorf("manifest: %w", err)
	}
	unsupported := func(version int) error {
		return fmt.Errorf(
			"manifest: unsupported snapshot version %d (this build reads version %d; re-save the snapshot from a live engine)",
			version, snapshotVersion)
	}
	if env.Manifest == nil {
		// Not an envelope. A version-1 manifest was the bare
		// snapshotManifest — detect it for a clean upgrade message
		// rather than a generic parse failure.
		var legacy snapshotManifest
		if json.Unmarshal(raw, &legacy) == nil && legacy.Version != 0 {
			return snapshotManifest{}, unsupported(legacy.Version)
		}
		return snapshotManifest{}, fmt.Errorf("manifest: missing checksum envelope: snapshot corrupt")
	}
	var man snapshotManifest
	if err := json.Unmarshal(env.Manifest, &man); err != nil {
		return snapshotManifest{}, fmt.Errorf("manifest: %w", err)
	}
	if man.Version != snapshotVersion {
		return snapshotManifest{}, unsupported(man.Version)
	}
	var canon bytes.Buffer
	if err := json.Compact(&canon, env.Manifest); err != nil {
		return snapshotManifest{}, fmt.Errorf("manifest: %w", err)
	}
	if sum := crc32.Checksum(canon.Bytes(), snapCRC); sum != env.CRC32C {
		return snapshotManifest{}, fmt.Errorf("manifest: checksum mismatch (recorded %08x, computed %08x): snapshot corrupt",
			env.CRC32C, sum)
	}
	if man.Shards < 1 {
		return snapshotManifest{}, fmt.Errorf("manifest: invalid shard count %d", man.Shards)
	}
	// A partial manifest's Owned list must be well-formed before the
	// covered-count checks can mean anything: strictly ascending (the
	// writer sorts), in range, and a strict subset.
	for j, g := range man.Owned {
		if g < 0 || g >= man.Shards {
			return snapshotManifest{}, fmt.Errorf("manifest: owned shard %d out of range [0,%d)", g, man.Shards)
		}
		if j > 0 && g <= man.Owned[j-1] {
			return snapshotManifest{}, fmt.Errorf("manifest: owned shards not strictly ascending at %d", g)
		}
	}
	// The sizes and checksums arrays are the cross-check that catches
	// mixed-epoch directories (a crash between shard renames and the
	// manifest rename); a manifest that cannot vouch for every covered
	// shard is rejected rather than partially verified.
	covered := len(man.coveredShards())
	if len(man.Sizes) != covered || len(man.Checksums) != covered {
		return snapshotManifest{}, fmt.Errorf("manifest: records %d sizes and %d checksums for %d covered shards",
			len(man.Sizes), len(man.Checksums), covered)
	}
	return man, nil
}

// LoadSnapshot reconstructs a single-metric EDwP engine from a snapshot
// directory written by SaveSnapshot. Shard trees load in parallel. The
// shard count always comes from the manifest (see the placement note
// above); the remaining opt fields — cache, workers, snapshot dir, WAL —
// apply as given.
func LoadSnapshot(dir string, opt Options) (*Engine, error) {
	return LoadSnapshotSpecs(dir, nil, opt)
}

// LoadSnapshotSpecs reconstructs a multi-metric engine from a snapshot
// directory: metrics the manifest records as persisted load from their
// shard files, and every other requested spec is rebuilt from the
// loaded corpus over the same hash partition (so placement agrees across
// metrics). makeSpecs is called once with the full loaded corpus — the
// hook where whole-database parameters (EDR's ε) are derived, exactly as
// a fresh boot would derive them — and its order becomes the boot order,
// so its first spec is the default metric. A nil makeSpecs means just
// the persisted metrics.
//
// Every shard file is verified against its own checksum before a byte
// of it is interpreted, and with opt.WALDir set the write-ahead log
// replays on top of the loaded state before the engine is returned.
func LoadSnapshotSpecs(dir string, makeSpecs func(db []*traj.Trajectory) ([]backend.Spec, error), opt Options) (*Engine, error) {
	opt = opt.withDefaults()
	man, err := readManifest(opt.FS, dir)
	if err != nil {
		return nil, fmt.Errorf("server: load snapshot: %w", err)
	}
	if len(man.Metrics) != 1 || man.Metrics[0] != trajtree.MetricName {
		return nil, fmt.Errorf("server: load snapshot: unsupported persisted metrics %v (only %q files are readable)",
			man.Metrics, trajtree.MetricName)
	}
	// The manifest's global shard count is the hash placement; a caller
	// Partition must agree with it, and an unpartitioned caller loading a
	// partial directory has no way to serve the missing shards.
	if opt.Partition != nil && opt.Partition.Total != man.Shards {
		return nil, fmt.Errorf("server: load snapshot: partition total %d does not match manifest shard count %d",
			opt.Partition.Total, man.Shards)
	}
	opt.Shards = man.Shards
	place, err := resolvePlacement(opt)
	if err != nil {
		return nil, fmt.Errorf("server: load snapshot: %w", err)
	}
	opt.Shards = place.numLocal()
	if len(man.Owned) > 0 && !place.partitioned() {
		return nil, fmt.Errorf("server: load snapshot: partial snapshot (covers shards %v of %d); boot with a matching Options.Partition",
			man.Owned, man.Shards)
	}
	treeShards := make([]*shard, place.numLocal())
	err = par.ForErr(opt.Workers, place.numLocal(), func(i int) error {
		g := place.globalOf(i)
		j := man.coveredPos(g) // position in the manifest's per-shard arrays
		if j < 0 {
			return fmt.Errorf("shard %d not covered (snapshot covers %v)", g, man.coveredShards())
		}
		tree, err := loadShardFile(filepath.Join(dir, arenaFileName(g)), g, j, man, opt)
		if err != nil {
			return fmt.Errorf("shard %d: %w", g, err)
		}
		treeShards[i] = &shard{be: tree}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("server: load snapshot: %w", err)
	}
	// The loaded members are the corpus the non-persisted state (extra
	// metrics, the prefilter) rebuilds from. The loaded placement already
	// is the hash placement, so each extra backend builds over exactly
	// its shard's slice of it, in the shard's member order.
	var all []*traj.Trajectory
	for _, s := range treeShards {
		all = append(all, s.all()...)
	}
	specs := []backend.Spec{{Name: trajtree.MetricName}}
	if makeSpecs != nil {
		if specs, err = makeSpecs(all); err != nil {
			return nil, fmt.Errorf("server: load snapshot: %w", err)
		}
	}
	sets, err := buildMetricSets(all, specs, place, opt, map[string][]*shard{trajtree.MetricName: treeShards})
	if err != nil {
		return nil, err
	}
	e := newEngine(sets, place, opt)
	// Recorded sketch parameters win over the loading Options (the same
	// rule as the shard count): they are the already-resolved
	// whole-corpus values the snapshot was serving with, so nothing is
	// re-derived and the rebuilt sketch indexes answer as the saved
	// engine's did. Without them the prefilter resolves fresh over the
	// loaded corpus, exactly as a cold boot would.
	p := opt.Sketch
	if man.Sketch != nil {
		p = *man.Sketch
	}
	if err := e.boot(all, man.Sketch != nil || opt.Prefilter, p); err != nil {
		return nil, fmt.Errorf("server: load snapshot: %w", err)
	}
	return e, nil
}

// sizedFile is an open shard file with the length Stat reported for it,
// so trajtree.Load reads it into one exact-size buffer.
type sizedFile struct {
	faultfs.File
	size int
}

func (f sizedFile) Len() int { return f.size }

// openShardFile decodes the shard file at path and returns its tree and
// checksum. opt.Mmap only decides where the file's bytes live: mapped
// through package os (a mapping cannot be fault-injected), or read onto
// the heap through opt.FS. Either way the file is verified against its
// own checksum first, and damage is an error wrapping arena.ErrCorrupt.
func openShardFile(path string, opt Options) (*trajtree.Tree, uint32, error) {
	if opt.Mmap {
		return trajtree.LoadArena(path)
	}
	fi, err := opt.FS.Stat(path)
	if err != nil {
		return nil, 0, err
	}
	f, err := opt.FS.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return trajtree.Load(sizedFile{f, int(fi.Size())})
}

// loadShardFile loads global shard g (manifest array position j) from
// its file and checks the tree against the manifest.
func loadShardFile(path string, g, j int, man snapshotManifest, opt Options) (*trajtree.Tree, error) {
	tree, sum, err := openShardFile(path, opt)
	if err != nil {
		return nil, err
	}
	// The file vouches for itself; a checksum that is not the manifest's
	// means an intact file from another save (a crash between the phase-2
	// renames), which only WAL replay can reconcile.
	if sum != man.Checksums[j] {
		if opt.WALDir == "" {
			return nil, fmt.Errorf("checksum mismatch (manifest %08x, file %08x) and no WAL is configured to reconcile epochs: snapshot corrupt",
				man.Checksums[j], sum)
		}
	} else if tree.Size() != man.Sizes[j] {
		// The manifest's size only describes its own epoch's file.
		return nil, fmt.Errorf("size %d does not match manifest %d", tree.Size(), man.Sizes[j])
	}
	// Each file carries its own (normalised) tree options; they must
	// agree with the manifest, or the directory mixes shard files from
	// differently configured engines.
	if tree.Options() != man.TreeOptions.WithDefaults() {
		return nil, fmt.Errorf("tree options %+v do not match manifest %+v", tree.Options(), man.TreeOptions.WithDefaults())
	}
	// So must the placement: a file written under another shard count —
	// a crash while resharding, a misplaced copy — holds members that
	// Lookup and Delete would route elsewhere.
	for _, tr := range tree.All() {
		if at := shardIndex(tr.ID, man.Shards); at != g {
			return nil, fmt.Errorf("trajectory %d hashes to shard %d of %d: file written under another placement, snapshot corrupt",
				tr.ID, at, man.Shards)
		}
	}
	return tree, nil
}

// SnapshotInfo is the externally visible shape of a snapshot directory,
// the metadata the cluster snapshot-shipping layer needs to decide what
// to fetch: the global shard count (the hash placement), the covered
// global shard indices, and when the snapshot was taken. Integrity stays
// inside the files themselves — shard files end in their own checksum,
// the manifest sits in a checksummed envelope — so a fetched replica
// directory re-verifies end to end at load time.
type SnapshotInfo struct {
	Shards  int       `json:"shards"`
	Covered []int     `json:"covered"`
	SavedAt time.Time `json:"saved_at"`
}

// ReadSnapshotInfo reads and verifies dir's manifest and reports its
// placement metadata.
func ReadSnapshotInfo(dir string) (SnapshotInfo, error) {
	man, err := readManifest(faultfs.OS{}, dir)
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("server: snapshot info: %w", err)
	}
	return SnapshotInfo{Shards: man.Shards, Covered: man.coveredShards(), SavedAt: man.SavedAt}, nil
}

// SnapshotFiles lists the file names a replica must fetch to boot the
// given global shards from a snapshot directory: the manifest, then one
// file per shard in the order given. Unknown coverage is the caller's
// problem — pair with ReadSnapshotInfo.
func SnapshotFiles(shards []int) []string {
	out := []string{manifestName}
	for _, g := range shards {
		out = append(out, arenaFileName(g))
	}
	return out
}

// IsSnapshotFileName reports whether name is a file a snapshot
// directory legitimately serves (the manifest or a shard file) — the
// allowlist the cluster snapshot-serving endpoint checks before
// touching the filesystem, so a crafted request can never escape the
// snapshot directory.
func IsSnapshotFileName(name string) bool {
	_, ok := parseArenaFileName(name)
	return ok || name == manifestName
}
