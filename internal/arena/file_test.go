package arena

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"trajmatch/internal/traj"
)

func testMembers(n int) []*traj.Trajectory {
	rng := rand.New(rand.NewSource(7))
	out := make([]*traj.Trajectory, n)
	for i := range out {
		pts := make([]traj.Point, 2+rng.Intn(6))
		x, y := rng.Float64()*100, rng.Float64()*100
		for j := range pts {
			x += rng.NormFloat64()
			y += rng.NormFloat64()
			pts[j] = traj.P(x, y, float64(j))
		}
		out[i] = traj.New(i+1, pts)
		out[i].Label = i % 3
	}
	return out
}

func testTreeSection() *TreeSection {
	return &TreeSection{
		NBoxes:   []float64{0, 0, 1, 1, 0.5},
		NMeta:    []int64{0, 1, 3, 0, 0, 0, 2, 0},
		Members:  []int64{0, 1},
		Children: nil,
	}
}

func encodeTestFile(t *testing.T) (string, *Arena, *TreeSection) {
	t.Helper()
	members := testMembers(20)
	a := Build(members)
	ts := testTreeSection()
	var buf bytes.Buffer
	sum, err := Encode(&buf, members, ts, []byte(`{"k":1}`))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if tail := binary.LittleEndian.Uint32(buf.Bytes()[buf.Len()-4:]); sum != tail {
		t.Fatalf("Encode returned checksum %08x, file ends in %08x", sum, tail)
	}
	path := filepath.Join(t.TempDir(), "x.arena")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, a, ts
}

// TestFileRoundTrip pins that Open returns bit-identical slabs and tree
// payload, whether mapped or heap-decoded.
func TestFileRoundTrip(t *testing.T) {
	path, a, ts := encodeTestFile(t)
	snap, err := Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	b := snap.Arena
	if len(b.ids) != len(a.ids) {
		t.Fatalf("len %d != %d", len(b.ids), len(a.ids))
	}
	for i := range a.ids {
		if a.ids[i] != b.ids[i] || a.labels[i] != b.labels[i] || a.lens[i] != b.lens[i] {
			t.Fatalf("member %d identity mismatch", i)
		}
		if a.offs[i+1] != b.offs[i+1] {
			t.Fatalf("member %d offsets mismatch", i)
		}
	}
	for i, p := range a.pts {
		if p != b.pts[i] || a.xs[i] != b.xs[i] || a.ys[i] != b.ys[i] {
			t.Fatalf("point %d mismatch", i)
		}
	}
	for name, pair := range map[string][2][]float64{
		"lens": {a.lens, b.lens}, "bbox": {a.bbox, b.bbox}, "boxes": {a.boxes, b.boxes},
	} {
		if !slices.Equal(pair[0], pair[1]) {
			t.Fatalf("%s mismatch", name)
		}
	}
	if !slices.Equal(a.boxOffs, b.boxOffs) {
		t.Fatal("boxoffs mismatch")
	}
	if raw, err := os.ReadFile(path); err != nil || snap.CRC != binary.LittleEndian.Uint32(raw[len(raw)-4:]) {
		t.Fatalf("snapshot checksum %08x is not the file's trailer (%v)", snap.CRC, err)
	}
	if string(snap.Extra) != `{"k":1}` {
		t.Fatalf("extra %q", snap.Extra)
	}
	got := snap.Tree
	for name, pair := range map[string][2][]int64{
		"nmeta":    {ts.NMeta, got.NMeta},
		"members":  {ts.Members, got.Members},
		"children": {ts.Children, got.Children},
	} {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("%s length mismatch", name)
		}
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				t.Fatalf("%s[%d] mismatch", name, i)
			}
		}
	}
	if !slices.Equal(ts.NBoxes, got.NBoxes) {
		t.Fatal("nboxes mismatch")
	}
}

// TestBoxLensDerived pins the member-side weights and the walk that
// derives them: the walk's own sum of the segment lengths is
// traj.Length's bit for bit, on members near the origin and far from it;
// per member the weights sum to its length (every segment is charged to
// exactly one box), a box never
// weighs more than it can hold, and since they are derived from xs/ys and
// boxes rather than stored, a reloaded arena — mapped or heap-decoded —
// must re-derive them bit for bit. A file whose boxes no longer contain
// their member's segments is corrupt, not a panic and not a silently
// wrong weight.
func TestBoxLensDerived(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	members := testMembers(12)
	for i := 0; i < 12; i++ { // long enough to be coarsened, with stutters
		var pts []traj.Point
		x, y := rng.Float64()*100, rng.Float64()*100
		for j, n := 0, MemberBoxes+2+rng.Intn(40); j < n; j++ {
			if rng.Intn(5) > 0 {
				x, y = x+rng.NormFloat64()*3, y+rng.NormFloat64()*3
			}
			pts = append(pts, traj.P(x, y, float64(j)))
		}
		members = append(members, traj.New(100+i, pts))
	}
	for i := 0; i < 6; i++ { // far from the origin, steps across six decades
		var pts []traj.Point
		x, y := 1e7*rng.NormFloat64(), 1e7*rng.NormFloat64()
		for j := 0; j < 30; j++ {
			step := math.Pow(10, float64(rng.Intn(6))-2)
			x, y = x+step*rng.NormFloat64(), y+step*rng.NormFloat64()
			pts = append(pts, traj.P(x, y, float64(j)))
		}
		members = append(members, traj.New(200+i, pts))
	}
	a := Build(members)
	for i, m := range members {
		// The walk's length is the one decode compares the stored length
		// with: it must be traj.Length's, bit for bit, as computed on a
		// header whose length nothing has cached.
		v, s := m.View(), m.Summary()
		got, seg := chargeSegments(v.X, v.Y, s.Boxes, make([]float64, len(s.BoxLens)))
		if want := traj.New(m.ID, m.Points).Length(); seg >= 0 || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("member %d: walk length %v (miss %d), traj.Length %v", i, got, seg, want)
		}
	}
	for i, m := range members {
		s := m.Summary()
		if n := len(s.BoxLens); 4*n != len(s.Boxes) || n > MemberBoxes {
			t.Fatalf("member %d: %d weights for %d box values", i, n, len(s.Boxes))
		}
		sum := 0.0
		for _, l := range s.BoxLens {
			sum += l
		}
		if diff := sum - m.Length(); diff > 1e-9*m.Length() || diff < -1e-9*m.Length() {
			t.Fatalf("member %d: box lengths sum to %v, length %v", i, sum, m.Length())
		}
	}
	var buf bytes.Buffer
	if _, err := Encode(&buf, members, testTreeSection(), nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "x.arena")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	opened, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string]*Arena{"opened": opened.Arena, "decoded": decoded.Arena} {
		if len(b.boxLens) != len(a.boxLens) {
			t.Fatalf("%s: %d weights, built %d", name, len(b.boxLens), len(a.boxLens))
		}
		for k, l := range a.boxLens {
			if math.Float64bits(b.boxLens[k]) != math.Float64bits(l) {
				t.Fatalf("%s: weight %d is %v, built %v", name, k, b.boxLens[k], l)
			}
		}
	}

	// Shrink the last member's last box to a point away from the member.
	last := members[len(members)-1].Clone()
	s := Summarize(last)
	copy(s.Boxes[len(s.Boxes)-4:], []float64{-1e6, -1e6, -1e6, -1e6})
	last.SetSummary(s)
	var bad bytes.Buffer
	if _, err := Encode(&bad, append(members[:len(members)-1:len(members)-1], last), testTreeSection(), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bad.Bytes()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decode of a file whose box lost its segment: err = %v, want ErrCorrupt", err)
	}
}

// TestFileMembersMaterialise pins that Members reconstructs trajectories
// bit-identical to the originals, with primed views and lengths.
func TestFileMembersMaterialise(t *testing.T) {
	orig := testMembers(20)
	path, _, _ := encodeTestFile(t)
	snap, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ms := snap.Arena.Members()
	if len(ms) != len(orig) {
		t.Fatalf("got %d members, want %d", len(ms), len(orig))
	}
	for i, m := range ms {
		o := orig[i]
		if m.ID != o.ID || m.Label != o.Label || len(m.Points) != len(o.Points) {
			t.Fatalf("member %d header mismatch", i)
		}
		for j, p := range m.Points {
			if p != o.Points[j] {
				t.Fatalf("member %d point %d mismatch", i, j)
			}
		}
		if m.Length() != o.Length() {
			t.Fatalf("member %d length %v != %v", i, m.Length(), o.Length())
		}
		v := m.View()
		for j := range v.X {
			if v.X[j] != o.Points[j].X || v.Y[j] != o.Points[j].Y {
				t.Fatalf("member %d view mismatch at %d", i, j)
			}
		}
	}
}

// TestFileCorruptionMatrix flips bits and truncates at positions across
// the whole file and asserts every damaged variant fails with a clean
// ErrCorrupt — never a panic (the deferred recover would catch one) and
// never a silently successful load of wrong data. Both the mmap path
// (Open) and the heap path (Decode) are exercised.
func TestFileCorruptionMatrix(t *testing.T) {
	path, _, _ := encodeTestFile(t)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	check := func(name string, data []byte) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: panic: %v", name, r)
			}
		}()
		p := filepath.Join(dir, "c.arena")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(p); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Open err = %v, want ErrCorrupt", name, err)
		}
		if _, err := Decode(append([]byte(nil), data...)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode err = %v, want ErrCorrupt", name, err)
		}
	}
	// Truncations: empty, header-only, mid-meta, mid-section, missing
	// trailer byte.
	for _, n := range []int{0, 8, 15, 40, len(good) / 3, len(good) / 2, len(good) - 1} {
		check("truncate", good[:n])
	}
	// Bit flips spread across the file: header, meta, every section
	// region, trailer.
	step := len(good)/97 + 1
	for off := 0; off < len(good); off += step {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x10
		check("bitflip", bad)
	}
	// A zero-filled file of plausible size.
	check("zeros", make([]byte, len(good)))
}
