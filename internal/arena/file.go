// The arena snapshot section: a flat, checksummed, mmap-able encoding
// of one shard's slabs plus a flattened tree payload supplied by the
// index layer. The design goal is an O(members + nodes) warm boot: the
// point slabs — the bulk of the bytes — are aliased straight out of the
// mapping instead of being decoded, so boot cost no longer scales with
// the number of samples.
//
// Layout (all integers little-endian):
//
//	[8]  magic "TRARENA1"
//	[8]  uint64 meta length
//	[..] meta JSON: {"version":2,"sections":[{name,off,len}...],"extra":...}
//	     (zero-padded to the next 8-byte boundary)
//	[..] sections, each starting on an 8-byte boundary
//	[4]  uint32 CRC32C (Castagnoli) over every preceding byte
//
// Sections are raw arrays: float64 and int64 values, and traj.Point
// records as three float64s. Every section offset is 8-aligned, so on a
// little-endian machine a verified mapping can be reinterpreted in place
// with unsafe.Slice; other machines (and mmap failures) fall back to a
// decode-copy that reads the same bytes through encoding/binary.
//
// The trailer checksum is verified over the whole file before a single
// value is interpreted, and every structural invariant (section bounds,
// alignment, monotone offset tables, index ranges) is checked before the
// arena is returned — a truncated or bit-flipped file surfaces as a
// clean ErrCorrupt, never a panic or a SIGBUS.
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
	// node-record words that indexed them; version-1 files are refused.
	fileVersion = 2
	// NMetaStride is the number of int64s in one node's metadata record
	// inside the nmeta section (see package trajtree for field order).
	NMetaStride = 8
)

var fileCRC = crc32.MakeTable(crc32.Castagnoli)

// TreeSection is the index layer's flattened tree payload, stored as
// named sections next to the slabs. The arena package treats it as
// opaque arrays; package trajtree defines the per-node record layout.
type TreeSection struct {
	NBoxes   []float64 // node summary boxes, 5 per box: MinX, MinY, MaxX, MaxY, MinL
	NMeta    []int64   // NMetaStride int64s per node
	Children []int64   // child node indices, flat
	Members  []int64   // member refs, flat: arena index, or -(overlay index)-1

	// Overlay members: trajectories inserted since the last rebuild have
	// no arena entry, so their samples are stored here and materialised
	// onto the heap at load (the overlay is small by construction — a
	// rebuild folds it into fresh slabs).
	OPts    []float64 // 3 per point: X, Y, T
	OOffs   []int64   // len(overlay)+1 prefix offsets into OPts (point units)
	OIDs    []int64
	OLabels []int64
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

// sectionOrder fixes the on-disk section order; Encode and the loaders
// walk the same list so offsets agree by construction.
var sectionOrder = []string{
	"pts", "xs", "ys", "offs", "ids", "labels", "lens", "bbox",
	"boxes", "boxoffs",
	"nboxes", "nmeta", "children", "members",
	"opts", "ooffs", "oids", "olabels",
}

func (a *Arena) sectionBytes(name string, ts *TreeSection) int64 {
	switch name {
	case "pts":
		return int64(len(a.pts)) * 24
	case "xs":
		return int64(len(a.xs)) * 8
	case "ys":
		return int64(len(a.ys)) * 8
	case "offs":
		return int64(len(a.offs)) * 8
	case "ids":
		return int64(len(a.ids)) * 8
	case "labels":
		return int64(len(a.labels)) * 8
	case "lens":
		return int64(len(a.lens)) * 8
	case "bbox":
		return int64(len(a.bbox)) * 8
	case "boxes":
		return int64(len(a.boxes)) * 8
	case "boxoffs":
		return int64(len(a.boxOffs)) * 8
	case "nboxes":
		return int64(len(ts.NBoxes)) * 8
	case "nmeta":
		return int64(len(ts.NMeta)) * 8
	case "children":
		return int64(len(ts.Children)) * 8
	case "members":
		return int64(len(ts.Members)) * 8
	case "opts":
		return int64(len(ts.OPts)) * 8
	case "ooffs":
		return int64(len(ts.OOffs)) * 8
	case "oids":
		return int64(len(ts.OIDs)) * 8
	case "olabels":
		return int64(len(ts.OLabels)) * 8
	}
	panic("arena: unknown section " + name)
}

// Encode writes the snapshot encoding of a and ts to w; extra is opaque
// metadata (the index layer's options and root) stored in the meta
// header. A nil arena encodes as empty slabs, so a shard that has only
// ever seen Inserts still snapshots (every member rides in the overlay).
// The returned value is the trailer checksum the file ends in.
func Encode(w io.Writer, a *Arena, ts *TreeSection, extra json.RawMessage) (uint32, error) {
	if a == nil {
		a = &Arena{offs: make([]int64, 1), boxOffs: make([]int64, 1)}
	}
	meta := fileMeta{Version: fileVersion, Extra: extra}
	// Lay out the sections: the meta block's own length shifts them, and
	// the offsets live inside the meta JSON, so sizing must iterate. The
	// digit width of the offsets converges after at most a few rounds.
	headerLen := int64(0)
	for range [8]int{} {
		meta.Sections = meta.Sections[:0]
		off := align8(headerLen)
		for _, name := range sectionOrder {
			n := a.sectionBytes(name, ts)
			meta.Sections = append(meta.Sections, fileSection{Name: name, Off: off, Len: n})
			off = align8(off + n)
		}
		raw, err := json.Marshal(meta)
		if err != nil {
			return 0, err
		}
		want := int64(16 + len(raw))
		if want == headerLen {
			break
		}
		headerLen = want
	}
	rawMeta, err := json.Marshal(meta)
	if err != nil {
		return 0, err
	}
	h := crc32.New(fileCRC)
	cw := io.MultiWriter(w, h)
	if _, err := cw.Write([]byte(fileMagic)); err != nil {
		return 0, err
	}
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], uint64(len(rawMeta)))
	if _, err := cw.Write(b8[:]); err != nil {
		return 0, err
	}
	if _, err := cw.Write(rawMeta); err != nil {
		return 0, err
	}
	pos := int64(16 + len(rawMeta))
	if err := pad8(cw, &pos); err != nil {
		return 0, err
	}
	for si, name := range sectionOrder {
		if pos != meta.Sections[si].Off {
			return 0, fmt.Errorf("arena: encode: section %s at %d, planned %d", name, pos, meta.Sections[si].Off)
		}
		n, err := a.writeSection(cw, name, ts)
		if err != nil {
			return 0, err
		}
		pos += n
		if err := pad8(cw, &pos); err != nil {
			return 0, err
		}
	}
	sum := h.Sum32()
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], sum)
	_, err = w.Write(trailer[:])
	return sum, err
}

func (a *Arena) writeSection(w io.Writer, name string, ts *TreeSection) (int64, error) {
	switch name {
	case "pts":
		return writePoints(w, a.pts)
	case "xs":
		return writeF64s(w, a.xs)
	case "ys":
		return writeF64s(w, a.ys)
	case "offs":
		return writeI64s(w, a.offs)
	case "ids":
		return writeI64s(w, a.ids)
	case "labels":
		return writeI64s(w, a.labels)
	case "lens":
		return writeF64s(w, a.lens)
	case "bbox":
		return writeF64s(w, a.bbox)
	case "boxes":
		return writeF64s(w, a.boxes)
	case "boxoffs":
		return writeI64s(w, a.boxOffs)
	case "nboxes":
		return writeF64s(w, ts.NBoxes)
	case "nmeta":
		return writeI64s(w, ts.NMeta)
	case "children":
		return writeI64s(w, ts.Children)
	case "members":
		return writeI64s(w, ts.Members)
	case "opts":
		return writeF64s(w, ts.OPts)
	case "ooffs":
		return writeI64s(w, ts.OOffs)
	case "oids":
		return writeI64s(w, ts.OIDs)
	case "olabels":
		return writeI64s(w, ts.OLabels)
	}
	panic("arena: unknown section " + name)
}

func align8(n int64) int64 { return (n + 7) &^ 7 }

var zero8 [8]byte

func pad8(w io.Writer, pos *int64) error {
	if rem := *pos & 7; rem != 0 {
		if _, err := w.Write(zero8[:8-rem]); err != nil {
			return err
		}
		*pos += 8 - rem
	}
	return nil
}

func writeF64s(w io.Writer, v []float64) (int64, error) {
	buf := make([]byte, 0, 1<<16)
	var n int64
	for _, f := range v {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		if len(buf) == cap(buf) {
			if _, err := w.Write(buf); err != nil {
				return n, err
			}
			n += int64(len(buf))
			buf = buf[:0]
		}
	}
	if _, err := w.Write(buf); err != nil {
		return n, err
	}
	return n + int64(len(buf)), nil
}

func writeI64s(w io.Writer, v []int64) (int64, error) {
	buf := make([]byte, 0, 1<<16)
	var n int64
	for _, x := range v {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
		if len(buf) == cap(buf) {
			if _, err := w.Write(buf); err != nil {
				return n, err
			}
			n += int64(len(buf))
			buf = buf[:0]
		}
	}
	if _, err := w.Write(buf); err != nil {
		return n, err
	}
	return n + int64(len(buf)), nil
}

func writePoints(w io.Writer, v []traj.Point) (int64, error) {
	buf := make([]byte, 0, 3*(1<<15))
	var n int64
	for _, p := range v {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.X))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Y))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.T))
		if len(buf) == cap(buf) {
			if _, err := w.Write(buf); err != nil {
				return n, err
			}
			n += int64(len(buf))
			buf = buf[:0]
		}
	}
	if _, err := w.Write(buf); err != nil {
		return n, err
	}
	return n + int64(len(buf)), nil
}

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
	for _, name := range sectionOrder {
		if _, ok := secs[name]; !ok {
			return nil, fmt.Errorf("%w: missing section %q", ErrCorrupt, name)
		}
	}
	get := func(name string) []byte {
		s := secs[name]
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
	a.lens = alias[float64](get("lens"), 8)
	a.bbox = alias[float64](get("bbox"), 8)
	a.boxes = alias[float64](get("boxes"), 8)
	a.boxOffs = alias[int64](get("boxoffs"), 8)
	ts.NBoxes = alias[float64](get("nboxes"), 8)
	ts.NMeta = alias[int64](get("nmeta"), 8)
	ts.Children = alias[int64](get("children"), 8)
	ts.Members = alias[int64](get("members"), 8)
	ts.OPts = alias[float64](get("opts"), 8)
	ts.OOffs = alias[int64](get("ooffs"), 8)
	ts.OIDs = alias[int64](get("oids"), 8)
	ts.OLabels = alias[int64](get("olabels"), 8)
	if err := a.check(); err != nil {
		return nil, err
	}
	if err := a.deriveBoxLens(); err != nil {
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
	if len(a.offs) != n+1 || len(a.boxOffs) != n+1 ||
		len(a.labels) != n || len(a.lens) != n || len(a.bbox) != 4*n {
		return fmt.Errorf("%w: member tables disagree (%d ids, %d offs, %d boxoffs, %d labels, %d lens, %d bbox)",
			ErrCorrupt, n, len(a.offs), len(a.boxOffs), len(a.labels), len(a.lens), len(a.bbox))
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
	nOverlay := len(ts.OIDs)
	if len(ts.OOffs) != 0 || nOverlay != 0 {
		if len(ts.OOffs) != nOverlay+1 || len(ts.OLabels) != nOverlay {
			return fmt.Errorf("%w: overlay tables disagree (%d ids, %d offs, %d labels)",
				ErrCorrupt, nOverlay, len(ts.OOffs), len(ts.OLabels))
		}
		if ts.OOffs[0] != 0 || len(ts.OPts)%3 != 0 || ts.OOffs[nOverlay] != int64(len(ts.OPts)/3) {
			return fmt.Errorf("%w: overlay offsets do not span the point slab", ErrCorrupt)
		}
		for i := 0; i < nOverlay; i++ {
			if ts.OOffs[i+1] < ts.OOffs[i] {
				return fmt.Errorf("%w: non-monotone overlay offsets at %d", ErrCorrupt, i)
			}
		}
	}
	nodes := len(ts.NMeta) / NMetaStride
	for ni := 0; ni < nodes; ni++ {
		m := ts.NMeta[ni*NMetaStride : (ni+1)*NMetaStride]
		boxOff, boxCount := m[0], m[1]
		childOff, childCount := m[3], m[4]
		memberOff, memberCount := m[5], m[6]
		if !window(boxOff, boxCount, len(ts.NBoxes)/5) {
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
			if r >= int64(len(a.ids)) || (r < 0 && int(-r-1) >= nOverlay) {
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
