// The arena snapshot section: a flat, checksummed, mmap-able encoding
// of one shard's members, in the slab layout Build makes, plus a
// flattened tree payload supplied by the index layer. Encode writes the
// slabs from the members it is given, each once, so a file carries no
// overlay and no deleted member. The design goal is an O(members + nodes)
// warm boot: the point slabs — the bulk of the bytes — are aliased
// straight out of the mapping instead of being decoded, so boot cost no
// longer scales with the number of samples.
//
// Layout (all integers little-endian):
//
//	[8]  magic "TRARENA1"
//	[8]  uint64 meta length
//	[..] meta JSON: {"version":4,"sections":[{name,off,len}...],"extra":...}
//	     (zero-padded to the next 8-byte boundary)
//	[..] sections, in the order pts xs ys offs ids labels boxes boxoffs
//	     (the slabs) nboxes nmeta children members (the tree)
//	[4]  uint32 CRC32C (Castagnoli) over every preceding byte
//
// Sections are raw arrays: float64 and int64 values, and traj.Point
// records as three float64s. Each fact has one home: a member's length,
// bbox and box weights are derived from its samples and boxes at decode,
// not stored beside them. Every section offset is 8-aligned, so on a
// little-endian machine a verified mapping can be reinterpreted in place
// with unsafe.Slice; other machines (and mmap failures) fall back to a
// decode-copy that reads the same bytes through encoding/binary.
//
// The trailer checksum is verified over the whole file before a single
// value is interpreted, and every structural invariant (section bounds,
// alignment, monotone offset tables, index ranges) and every member's
// samples (traj.Validate) are checked before the arena is returned — a
// truncated, bit-flipped or hostile file surfaces as a clean ErrCorrupt,
// never a panic, a SIGBUS or a sample Insert would refuse.
package arena

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"unsafe"

	"trajmatch/internal/traj"
)

// ErrCorrupt reports that an arena snapshot file failed verification —
// bad magic, damaged checksum, or an internal inconsistency: the file
// cannot be served from.
var ErrCorrupt = errors.New("arena: snapshot corrupt")

const (
	fileMagic = "TRARENA1"
	// fileVersion 2 dropped the vantage-point sections and the four
	// node-record words that indexed them; version 3 dropped the overlay
	// sections and the negative member refs into them; version 4 dropped
	// the lens and bbox sections, each node box's MinL and the node
	// record's insert count. Files of an earlier version are refused.
	fileVersion = 4
	// NMetaStride is the number of int64s in one node's metadata record
	// inside the nmeta section (see package trajtree for field order).
	NMetaStride = 7
)

var fileCRC = crc32.MakeTable(crc32.Castagnoli)

// TreeSection is the index layer's flattened tree payload, stored as
// named sections next to the slabs. The arena package treats it as
// opaque arrays; package trajtree defines the per-node record layout.
type TreeSection struct {
	NBoxes   []float64 // node summary boxes, 4 per box: MinX, MinY, MaxX, MaxY
	NMeta    []int64   // NMetaStride int64s per node
	Children []int64   // child node indices, flat
	Members  []int64   // member refs, flat: the member's index in the file's slabs
}

// Snapshot is a decoded arena file: the slab arena, the index layer's
// tree payload, and the opaque extra metadata it stored.
type Snapshot struct {
	Arena *Arena
	Tree  TreeSection
	Extra json.RawMessage
	// CRC is the file's verified trailer: the CRC32C of every byte before
	// it, which identifies the save the file came from.
	CRC uint32
	// Mapped reports whether the slices alias an mmap'd file (true) or
	// heap copies (false).
	Mapped bool
}

type fileSection struct {
	Name string `json:"name"`
	Off  int64  `json:"off"`
	Len  int64  `json:"len"` // bytes
}

type fileMeta struct {
	Version  int             `json:"version"`
	Sections []fileSection   `json:"sections"`
	Extra    json.RawMessage `json:"extra,omitempty"`
}

// section is one named array of the file: its length in 8-byte words
// and the writer of its values.
type section struct {
	name  string
	words int
	write func(*fileWriter)
}

// sections lists the file's sections in their on-disk order, each
// written straight from the members' samples and summary windows, or
// from ts.
func sections(members []*traj.Trajectory, ts *TreeSection) []section {
	n, pts, boxes := len(members), 0, 0
	for _, m := range members {
		pts += len(m.Points)
		boxes += len(m.Summary().Boxes)
	}
	// each writes one member at a time through f, which appends to b and
	// returns it, as append does. Storing into fw.buf once per member,
	// not once per value, keeps the GC write barrier off the per-value
	// path: per-value stores made a 10 k-member save 1.5× slower.
	each := func(f func(b []byte, m *traj.Trajectory) []byte) func(*fileWriter) {
		return func(fw *fileWriter) {
			for _, m := range members {
				fw.buf = f(fw.buf, m)
				fw.spill()
			}
		}
	}
	prefix := func(size func(*traj.Trajectory) int) func(*fileWriter) {
		return func(fw *fileWriter) {
			off := 0
			fw.buf = putI64(fw.buf, 0)
			each(func(b []byte, m *traj.Trajectory) []byte {
				off += size(m)
				return putI64(b, int64(off))
			})(fw)
		}
	}
	return []section{
		{"pts", 3 * pts, each(func(b []byte, m *traj.Trajectory) []byte {
			for _, p := range m.Points {
				b = putF64(putF64(putF64(b, p.X), p.Y), p.T)
			}
			return b
		})},
		{"xs", pts, each(func(b []byte, m *traj.Trajectory) []byte {
			for _, p := range m.Points {
				b = putF64(b, p.X)
			}
			return b
		})},
		{"ys", pts, each(func(b []byte, m *traj.Trajectory) []byte {
			for _, p := range m.Points {
				b = putF64(b, p.Y)
			}
			return b
		})},
		{"offs", n + 1, prefix(func(m *traj.Trajectory) int { return len(m.Points) })},
		{"ids", n, each(func(b []byte, m *traj.Trajectory) []byte { return putI64(b, int64(m.ID)) })},
		{"labels", n, each(func(b []byte, m *traj.Trajectory) []byte { return putI64(b, int64(m.Label)) })},
		{"boxes", boxes, each(func(b []byte, m *traj.Trajectory) []byte { return putF64s(b, m.Summary().Boxes) })},
		{"boxoffs", n + 1, prefix(func(m *traj.Trajectory) int { return len(m.Summary().Boxes) / 4 })},
		{"nboxes", len(ts.NBoxes), func(fw *fileWriter) { fw.f64s(ts.NBoxes) }},
		{"nmeta", len(ts.NMeta), func(fw *fileWriter) { fw.i64s(ts.NMeta) }},
		{"children", len(ts.Children), func(fw *fileWriter) { fw.i64s(ts.Children) }},
		{"members", len(ts.Members), func(fw *fileWriter) { fw.i64s(ts.Members) }},
	}
}

// Encode writes the snapshot encoding of members and ts to w; extra is
// opaque metadata (the index layer's options and root) stored in the meta
// header. The slabs are written from each member's own samples and
// screen summary (which every tree member carries), member i becoming
// arena index i — the index ts's member refs name. So the file holds
// each given member once and nothing else, and the members of a Build,
// in build order, encode to that arena's slabs byte for byte. The
// returned value is the trailer checksum the file ends in.
func Encode(w io.Writer, members []*traj.Trajectory, ts *TreeSection, extra json.RawMessage) (uint32, error) {
	secs := sections(members, ts)
	meta := fileMeta{Version: fileVersion, Extra: extra}
	// Lay out the sections: the meta block's own length shifts them, and
	// the offsets live inside the meta JSON, so sizing must iterate. The
	// digit width of the offsets converges after at most a few rounds.
	headerLen := int64(0)
	var rawMeta []byte
	for range [8]int{} {
		meta.Sections = meta.Sections[:0]
		off := align8(headerLen)
		for _, s := range secs {
			meta.Sections = append(meta.Sections, fileSection{Name: s.name, Off: off, Len: 8 * int64(s.words)})
			off += 8 * int64(s.words)
		}
		var err error
		if rawMeta, err = json.Marshal(meta); err != nil {
			return 0, err
		}
		want := int64(16 + len(rawMeta))
		if want == headerLen {
			break
		}
		headerLen = want
	}
	fw := &fileWriter{w: w, buf: make([]byte, 0, fileBuf+len(rawMeta)+24)}
	fw.buf = append(fw.buf, fileMagic...)
	fw.buf = putI64(fw.buf, int64(len(rawMeta)))
	fw.buf = append(fw.buf, rawMeta...)
	fw.buf = append(fw.buf, make([]byte, align8(headerLen)-headerLen)...)
	for i, s := range secs {
		s.write(fw)
		if planned := meta.Sections[i]; fw.pos() != planned.Off+planned.Len {
			return 0, fmt.Errorf("arena: encode: section %s ends at %d, planned %d", s.name, fw.pos(), planned.Off+planned.Len)
		}
	}
	fw.flush()
	if fw.err != nil {
		return 0, fw.err
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], fw.crc)
	_, err := w.Write(trailer[:])
	return fw.crc, err
}

// fileBuf is the size at which a fileWriter flushes.
const fileBuf = 1 << 16

// fileWriter buffers a file's bytes on their way to w and into the
// trailer checksum. Section writers append to buf and spill after each
// member, so it stays within one member's bytes of fileBuf. The first
// write error sticks; later bytes are counted but dropped.
type fileWriter struct {
	w   io.Writer
	buf []byte
	n   int64 // bytes flushed
	crc uint32
	err error
}

// putF64, putI64, putF64s and putI64s append little-endian words to b.
func putF64(b []byte, x float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
}

func putI64(b []byte, x int64) []byte { return binary.LittleEndian.AppendUint64(b, uint64(x)) }

func putF64s(b []byte, v []float64) []byte {
	for _, x := range v {
		b = putF64(b, x)
	}
	return b
}

func putI64s(b []byte, v []int64) []byte {
	for _, x := range v {
		b = putI64(b, x)
	}
	return b
}

// f64s and i64s write a whole section's values, fileBuf bytes at a time.
func (fw *fileWriter) f64s(v []float64) {
	for len(v) > 0 {
		k := min(len(v), fileBuf/8)
		fw.buf = putF64s(fw.buf, v[:k])
		fw.spill()
		v = v[k:]
	}
}

func (fw *fileWriter) i64s(v []int64) {
	for len(v) > 0 {
		k := min(len(v), fileBuf/8)
		fw.buf = putI64s(fw.buf, v[:k])
		fw.spill()
		v = v[k:]
	}
}

// spill flushes a full buffer.
func (fw *fileWriter) spill() {
	if len(fw.buf) >= fileBuf {
		fw.flush()
	}
}

func (fw *fileWriter) flush() {
	if fw.err == nil {
		fw.crc = crc32.Update(fw.crc, fileCRC, fw.buf)
		_, fw.err = fw.w.Write(fw.buf)
	}
	fw.n += int64(len(fw.buf))
	fw.buf = fw.buf[:0]
}

// pos is the offset of the next byte written.
func (fw *fileWriter) pos() int64 { return fw.n + int64(len(fw.buf)) }

func align8(n int64) int64 { return (n + 7) &^ 7 }

// Open maps the arena snapshot at path and returns a Snapshot whose
// slices alias the mapping (after the whole file's checksum and every
// structural invariant have been verified). When mapping is unavailable
// — unsupported platform, big-endian host, or an mmap error — it falls
// back to reading the file onto the heap; the result is identical
// except for Mapped. The mapping is intentionally never unmapped:
// trajectories alias it for the life of the process, and a stale
// mapping kept past a rebuild costs address space, not correctness.
func Open(path string) (*Snapshot, error) {
	if b, ok := mapFile(path); ok && hostLittleEndian() {
		s, err := decode(b, true)
		if err != nil {
			unmapFile(b)
			return nil, err
		}
		return s, nil
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decode(b, false)
}

// Decode parses an arena snapshot from bytes already in memory. The
// returned snapshot aliases b on little-endian hosts; b must not be
// modified afterwards.
func Decode(b []byte) (*Snapshot, error) { return decode(b, false) }

func decode(b []byte, mapped bool) (*Snapshot, error) {
	if len(b) < 16+4 {
		return nil, fmt.Errorf("%w: %d-byte file cannot hold a header", ErrCorrupt, len(b))
	}
	if string(b[:8]) != fileMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, b[:8])
	}
	body, sum := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if got := crc32.Checksum(body, fileCRC); got != sum {
		return nil, fmt.Errorf("%w: checksum mismatch (trailer %08x, content %08x)", ErrCorrupt, sum, got)
	}
	metaLen := binary.LittleEndian.Uint64(b[8:16])
	if metaLen > uint64(len(body)-16) {
		return nil, fmt.Errorf("%w: meta length %d exceeds file", ErrCorrupt, metaLen)
	}
	var meta fileMeta
	if err := json.Unmarshal(b[16:16+metaLen], &meta); err != nil {
		return nil, fmt.Errorf("%w: meta: %v", ErrCorrupt, err)
	}
	if meta.Version != fileVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, meta.Version)
	}
	secs := make(map[string]fileSection, len(meta.Sections))
	for _, s := range meta.Sections {
		if s.Off < 0 || s.Len < 0 || s.Off&7 != 0 || s.Len&7 != 0 ||
			s.Off+s.Len < s.Off || s.Off+s.Len > int64(len(body)) {
			return nil, fmt.Errorf("%w: section %q [%d,+%d) out of bounds", ErrCorrupt, s.Name, s.Off, s.Len)
		}
		secs[s.Name] = s
	}
	var missing []string
	get := func(name string) []byte {
		s, ok := secs[name]
		if !ok {
			missing = append(missing, name)
		}
		return b[s.Off : s.Off+s.Len]
	}
	a := &Arena{}
	var ts TreeSection
	if mapped {
		a.mapped = b
	}
	a.pts = alias[traj.Point](get("pts"), 24)
	a.xs = alias[float64](get("xs"), 8)
	a.ys = alias[float64](get("ys"), 8)
	a.offs = alias[int64](get("offs"), 8)
	a.ids = alias[int64](get("ids"), 8)
	a.labels = alias[int64](get("labels"), 8)
	a.boxes = alias[float64](get("boxes"), 8)
	a.boxOffs = alias[int64](get("boxoffs"), 8)
	ts.NBoxes = alias[float64](get("nboxes"), 8)
	ts.NMeta = alias[int64](get("nmeta"), 8)
	ts.Children = alias[int64](get("children"), 8)
	ts.Members = alias[int64](get("members"), 8)
	if len(missing) > 0 {
		return nil, fmt.Errorf("%w: missing sections %q", ErrCorrupt, missing)
	}
	if err := a.check(); err != nil {
		return nil, err
	}
	if err := a.derive(); err != nil {
		return nil, err
	}
	if err := ts.check(a); err != nil {
		return nil, err
	}
	a.byID = make(map[int]int32, len(a.ids))
	for i, id := range a.ids {
		a.byID[int(id)] = int32(i)
	}
	return &Snapshot{Arena: a, Tree: ts, Extra: meta.Extra, CRC: sum, Mapped: mapped}, nil
}

// alias reinterprets raw little-endian bytes as a []T in place on
// little-endian hosts, and decode-copies through encoding/binary
// elsewhere. elem is T's encoded size (24 for traj.Point, 8 for the
// scalar types); the caller guarantees len(b) is a multiple of 8 and
// 8-alignment of &b[0] (section invariants, checked before use).
func alias[T float64 | int64 | traj.Point](b []byte, elem int) []T {
	if len(b)%elem != 0 {
		// Length mismatch is caught by the structural checks; return the
		// truncated view rather than panicking here.
		b = b[:len(b)-len(b)%elem]
	}
	n := len(b) / elem
	if n == 0 {
		return nil
	}
	if hostLittleEndian() {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]T, n)
	switch any(out).(type) {
	case []float64:
		dst := any(out).([]float64)
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	case []int64:
		dst := any(out).([]int64)
		for i := range dst {
			dst[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
		}
	case []traj.Point:
		dst := any(out).([]traj.Point)
		for i := range dst {
			dst[i] = traj.Point{
				X: math.Float64frombits(binary.LittleEndian.Uint64(b[24*i:])),
				Y: math.Float64frombits(binary.LittleEndian.Uint64(b[24*i+8:])),
				T: math.Float64frombits(binary.LittleEndian.Uint64(b[24*i+16:])),
			}
		}
	}
	return out
}

func hostLittleEndian() bool {
	var one uint16 = 1
	return *(*byte)(unsafe.Pointer(&one)) == 1
}

// check verifies the arena's internal invariants after decode: the
// offset tables must be monotone prefix sums that stay inside their
// slabs, and the per-member tables must agree on the member count. A
// violation means the file is damaged in a way the checksum alone could
// not localise (it never happens for files Encode wrote).
func (a *Arena) check() error {
	n := len(a.ids)
	if len(a.offs) != n+1 || len(a.boxOffs) != n+1 || len(a.labels) != n {
		return fmt.Errorf("%w: member tables disagree (%d ids, %d offs, %d boxoffs, %d labels)",
			ErrCorrupt, n, len(a.offs), len(a.boxOffs), len(a.labels))
	}
	if a.offs[0] != 0 || a.boxOffs[0] != 0 {
		return fmt.Errorf("%w: offset tables must start at 0", ErrCorrupt)
	}
	for i := 0; i < n; i++ {
		if a.offs[i+1] < a.offs[i] || a.boxOffs[i+1] < a.boxOffs[i] {
			return fmt.Errorf("%w: non-monotone offset table at member %d", ErrCorrupt, i)
		}
	}
	if int(a.offs[n]) != len(a.pts) || len(a.xs) != len(a.pts) || len(a.ys) != len(a.pts) {
		return fmt.Errorf("%w: point slabs disagree (%d offs end, %d pts, %d xs, %d ys)",
			ErrCorrupt, a.offs[n], len(a.pts), len(a.xs), len(a.ys))
	}
	if len(a.boxes)%4 != 0 || a.boxOffs[n] != int64(len(a.boxes)/4) {
		return fmt.Errorf("%w: box slab disagrees (%d boxoffs end, %d boxes)", ErrCorrupt, a.boxOffs[n], len(a.boxes))
	}
	return nil
}

// check verifies the tree payload's index ranges against the arena: a
// damaged node record must fail here, not as an out-of-range slice
// panic while reconstructing the tree.
func (ts *TreeSection) check(a *Arena) error {
	if len(ts.NMeta)%NMetaStride != 0 {
		return fmt.Errorf("%w: nmeta length %d not a multiple of %d", ErrCorrupt, len(ts.NMeta), NMetaStride)
	}
	nodes := len(ts.NMeta) / NMetaStride
	for ni := 0; ni < nodes; ni++ {
		m := ts.NMeta[ni*NMetaStride : (ni+1)*NMetaStride]
		boxOff, boxCount := m[0], m[1]
		childOff, childCount := m[2], m[3]
		memberOff, memberCount := m[4], m[5]
		if !window(boxOff, boxCount, len(ts.NBoxes)/4) {
			return fmt.Errorf("%w: node %d box range out of bounds", ErrCorrupt, ni)
		}
		if !window(childOff, childCount, len(ts.Children)) {
			return fmt.Errorf("%w: node %d child range out of bounds", ErrCorrupt, ni)
		}
		for _, c := range ts.Children[childOff : childOff+childCount] {
			if c < 0 || c >= int64(nodes) {
				return fmt.Errorf("%w: node %d child index %d out of range", ErrCorrupt, ni, c)
			}
		}
		if !window(memberOff, memberCount, len(ts.Members)) {
			return fmt.Errorf("%w: node %d member range out of bounds", ErrCorrupt, ni)
		}
		for _, r := range ts.Members[memberOff : memberOff+memberCount] {
			if r < 0 || r >= int64(len(a.ids)) {
				return fmt.Errorf("%w: node %d member ref %d out of range", ErrCorrupt, ni, r)
			}
		}
	}
	return nil
}

// window reports whether [off, off+count) lies inside a table of n
// entries. The values come from the file and may sit anywhere in int64,
// so the test never forms off+count (or a multiple of it), which wraps.
func window(off, count int64, n int) bool {
	return off >= 0 && count >= 0 && off <= int64(n) && count <= int64(n)-off
}

// Members materialises trajectory headers over the arena's slabs: one
// backing array of structs, each aliasing its slab window and primed
// with its stored view and summary. This is the warm-boot path — cost
// O(members), independent of the number of samples.
func (a *Arena) Members() []*traj.Trajectory {
	backing := make([]traj.Trajectory, len(a.ids))
	out := make([]*traj.Trajectory, len(a.ids))
	for i := range backing {
		backing[i].ID, backing[i].Label = int(a.ids[i]), int(a.labels[i])
		out[i] = &backing[i]
	}
	a.prime(out)
	return out
}
