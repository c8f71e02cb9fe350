package trajtree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"trajmatch/internal/arena"
	"trajmatch/internal/traj"
)

// FuzzLoadArena feeds the one decoder of tree files whatever the fuzzer
// makes of a valid file. These bytes arrive from other machines
// (GET /cluster/v1/snapshot/{file}, -fetch-snapshot), and a checksum only
// proves the sender computed one: the target re-seals the trailer over
// every mutated body, so what is under test is everything behind the
// checksum — the section table, the slab invariants, the node records.
// Load must return an error wrapping arena.ErrCorrupt or a tree that
// answers a search; it must never panic.
//
// The committed corpus (testdata/fuzz/FuzzLoadArena, arena format 2)
// holds a built tree, an empty one, one with an overlay, two files whose
// single overwritten node-record word (boxOff, memberCount) used to wrap
// an int64 range check and panic the loader, and one whose first member
// box was moved off the segment it summarises, which the decode-time
// derivation of the member-side weights must refuse as corrupt, and one
// whose overlay holds a NaN sample, which the overlay's Summarize must
// refuse as corrupt.
func FuzzLoadArena(f *testing.F) {
	q := traj.New(9_000_000, []traj.Point{traj.P(1, 1, 0), traj.P(4, 2, 10), traj.P(6, 6, 20)})
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	f.Fuzz(func(t *testing.T, file []byte) {
		if len(file) >= 4 {
			binary.LittleEndian.PutUint32(file[len(file)-4:], crc32.Checksum(file[:len(file)-4], castagnoli))
		}
		tree, _, err := Load(bytes.NewReader(file))
		if err != nil {
			if !errors.Is(err, arena.ErrCorrupt) {
				t.Fatalf("Load: %v, want an error wrapping arena.ErrCorrupt", err)
			}
			return
		}
		if _, _, _, err := tree.SearchKNN(q, 3, nil, nil); err != nil {
			t.Fatalf("SearchKNN on a loaded tree: %v", err)
		}
	})
}
