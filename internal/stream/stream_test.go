package stream

import (
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"trajmatch/internal/sketch"
	"trajmatch/internal/traj"
)

func pt(x, y, t float64) traj.Point { return traj.Point{X: x, Y: y, T: t} }

func testBuffer(onChange func()) *Buffer {
	p := sketch.Params{CellSize: 10}
	return NewBuffer(onChange, &p)
}

func TestBufferAppendSnapshotRemove(t *testing.T) {
	var bumps int
	b := testBuffer(func() { bumps++ })
	now := time.Unix(0, 0)

	if off := b.Append(7, 3, []traj.Point{pt(0, 0, 0), pt(5, 5, 1)}, now, nil); off != 0 {
		t.Fatalf("first append offset = %d", off)
	}
	if off := b.Append(7, 0, []traj.Point{pt(25, 5, 2)}, now, nil); off != 2 {
		t.Fatalf("second append offset = %d", off)
	}
	if b.Len(7) != 3 || b.Len(8) != 0 || !b.Has(7) || b.Has(8) {
		t.Fatalf("Len/Has wrong: %d %d", b.Len(7), b.Len(8))
	}
	s, ok := b.Get(7)
	if !ok || s.ID != 7 || s.Label != 3 || len(s.Points) != 3 {
		t.Fatalf("Get: %+v ok=%v", s, ok)
	}
	// The first-append snapshot must stay stable across later appends.
	early := s.Points
	b.Append(7, 0, []traj.Point{pt(30, 30, 3)}, now, nil)
	if len(early) != 3 || early[2] != pt(25, 5, 2) {
		t.Fatalf("snapshot mutated by later append")
	}
	if b.Count() != 1 || b.Points() != 4 {
		t.Fatalf("Count=%d Points=%d", b.Count(), b.Points())
	}
	if bumps != 3 {
		t.Fatalf("onChange fired %d times, want 3", bumps)
	}
	snap, ok := b.Remove(7)
	if !ok || len(snap.Points) != 4 || snap.Label != 3 {
		t.Fatalf("Remove: %+v ok=%v", snap, ok)
	}
	if _, ok := b.Remove(7); ok {
		t.Fatal("double remove succeeded")
	}
	if bumps != 4 {
		t.Fatalf("onChange after remove fired %d times, want 4", bumps)
	}
}

func TestBufferIdleBefore(t *testing.T) {
	b := testBuffer(nil)
	t0 := time.Unix(100, 0)
	b.Append(1, 0, []traj.Point{pt(0, 0, 0)}, t0, nil)
	b.Append(2, 0, []traj.Point{pt(0, 0, 0)}, t0.Add(10*time.Second), nil)
	got := b.IdleBefore(t0.Add(5 * time.Second))
	if !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("IdleBefore = %v, want [1]", got)
	}
	// A fresh append revives the track.
	b.Append(1, 0, []traj.Point{pt(1, 1, 1)}, t0.Add(20*time.Second), nil)
	if got := b.IdleBefore(t0.Add(5 * time.Second)); len(got) != 0 {
		t.Fatalf("IdleBefore after revive = %v", got)
	}
}

// isGated reports whether tr has passed the token gate of watch w.
func isGated(tr *Track, w int) bool {
	_, ok := tr.gated[w]
	return ok
}

func TestTrackGatingState(t *testing.T) {
	b := testBuffer(nil)
	now := time.Unix(0, 0)
	b.Append(1, 0, []traj.Point{pt(0, 0, 0)}, now, func(tr *Track, fresh []uint64) {
		if len(fresh) != 1 {
			t.Fatalf("fresh tokens = %d, want 1", len(fresh))
		}
		if isGated(tr, 5) || tr.Matched(5) {
			t.Fatal("fresh track pre-gated")
		}
		tr.SetGated(5)
		tr.SetMatched(5)
		tr.SetLastWatchID(5)
	})
	b.Append(1, 0, []traj.Point{pt(100, 100, 1)}, now, func(tr *Track, fresh []uint64) {
		if !isGated(tr, 5) || !tr.Matched(5) || tr.LastWatchID() != 5 {
			t.Fatal("gating state not retained")
		}
		tr.ForgetWatch(5)
		if isGated(tr, 5) || tr.Matched(5) {
			t.Fatal("ForgetWatch left state")
		}
	})
}

func TestRegistryCollide(t *testing.T) {
	r := NewRegistry()
	pat := &traj.Trajectory{ID: -1, Points: []traj.Point{pt(0, 0, 0), pt(1, 1, 1)}}
	idA := r.Add(&Watch{Pattern: pat, Metric: "edwp", Threshold: 1}, []uint64{10, 20})
	idB := r.Add(&Watch{Pattern: pat, Metric: "edwp", Threshold: 1}, []uint64{20, 30})
	idC := r.Add(&Watch{Pattern: pat, Metric: "edwp", K: 2, Exact: true}, []uint64{10})
	if idA != 1 || idB != 2 || idC != 3 {
		t.Fatalf("ids = %d %d %d", idA, idB, idC)
	}
	if got := r.Collide([]uint64{20}); !reflect.DeepEqual(got, []int{idA, idB}) {
		t.Fatalf("Collide(20) = %v", got)
	}
	if got := r.Collide([]uint64{10}); !reflect.DeepEqual(got, []int{idA}) {
		t.Fatalf("Collide(10) = %v (exact watch must not be gated)", got)
	}
	if got := r.Collide([]uint64{99}); got != nil {
		t.Fatalf("Collide(99) = %v", got)
	}
	after := r.After(idA)
	if len(after) != 2 || after[0].ID != idB || after[1].ID != idC {
		t.Fatalf("After(%d) = %v", idA, after)
	}
	if r.MaxID() != 3 || r.Count() != 3 {
		t.Fatalf("MaxID=%d Count=%d", r.MaxID(), r.Count())
	}
	if !r.Remove(idB) || r.Remove(idB) {
		t.Fatal("Remove")
	}
	if got := r.Collide([]uint64{20, 30}); !reflect.DeepEqual(got, []int{idA}) {
		t.Fatalf("Collide after remove = %v", got)
	}
	if r.Get(idB) != nil || r.Get(idA) == nil {
		t.Fatal("Get after remove")
	}
}

func TestWatchTopK(t *testing.T) {
	w := &Watch{K: 2}
	if !math.IsInf(w.KthBound(), 1) {
		t.Fatal("empty top-k bound not +Inf")
	}
	if ch, rank := w.Offer(10, 5.0); !ch || rank != 0 {
		t.Fatalf("first offer: %v %d", ch, rank)
	}
	if ch, rank := w.Offer(11, 7.0); !ch || rank != 1 {
		t.Fatalf("second offer: %v %d", ch, rank)
	}
	if w.KthBound() != 7.0 {
		t.Fatalf("KthBound = %v", w.KthBound())
	}
	// Worse than the current kth: rejected.
	if ch, _ := w.Offer(12, 9.0); ch {
		t.Fatal("worse offer accepted")
	}
	// A track improving its own distance keeps one entry.
	if ch, rank := w.Offer(11, 3.0); !ch || rank != 0 {
		t.Fatalf("improvement: %v %d", ch, rank)
	}
	if ch, _ := w.Offer(11, 4.0); ch {
		t.Fatal("regression accepted")
	}
	bests := w.best
	if len(bests) != 2 || bests[0] != (Best{Track: 11, Dist: 3}) || bests[1] != (Best{Track: 10, Dist: 5}) {
		t.Fatalf("best list = %v", bests)
	}
	// Equal distance ties break by track ID: 9 < 10 at dist 5 evicts 10.
	if ch, rank := w.Offer(9, 5.0); !ch || rank != 1 {
		t.Fatalf("tie offer: %v %d", ch, rank)
	}
	w.Drop(9)
	if got := w.best; len(got) != 1 || got[0].Track != 11 {
		t.Fatalf("after Drop: %v", got)
	}
}

func TestEventLogRingAndGap(t *testing.T) {
	l := NewEventLog(4)
	if l.LastSeq() != 0 {
		t.Fatal("fresh log has events")
	}
	if evs, gap := l.After(0, 0); evs != nil || gap {
		t.Fatalf("fresh After: %v %v", evs, gap)
	}
	for i := 1; i <= 6; i++ {
		seq := l.Publish(Event{Watch: i})
		if seq != uint64(i) {
			t.Fatalf("Publish seq = %d, want %d", seq, i)
		}
	}
	// Ring holds 3..6; cursor 0 missed 1..2.
	evs, gap := l.After(0, 0)
	if !gap || len(evs) != 4 || evs[0].Seq != 3 || evs[3].Seq != 6 {
		t.Fatalf("After(0): gap=%v evs=%v", gap, evs)
	}
	evs, gap = l.After(2, 0)
	if gap || len(evs) != 4 || evs[0].Seq != 3 {
		t.Fatalf("After(2): gap=%v n=%d", gap, len(evs))
	}
	evs, gap = l.After(4, 1)
	if gap || len(evs) != 1 || evs[0].Seq != 5 || evs[0].Watch != 5 {
		t.Fatalf("After(4, max 1): gap=%v evs=%v", gap, evs)
	}
	if evs, gap := l.After(6, 0); evs != nil || gap {
		t.Fatalf("caught-up After: %v %v", evs, gap)
	}
}

func TestEventLogWait(t *testing.T) {
	l := NewEventLog(8)
	ch := l.WaitCh()
	select {
	case <-ch:
		t.Fatal("wait channel closed before publish")
	default:
	}
	done := make(chan Event, 1)
	go func() {
		<-ch
		evs, _ := l.After(0, 0)
		done <- evs[len(evs)-1]
	}()
	l.Publish(Event{Watch: 42})
	select {
	case ev := <-done:
		if ev.Watch != 42 || ev.Seq != 1 {
			t.Fatalf("woke with %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poller never woke")
	}
}

// TestConcurrentBufferAndLog drives appenders, snapshotters, a watch
// being forgotten and event publishers in parallel; meaningful mainly
// under -race.
func TestConcurrentBufferAndLog(t *testing.T) {
	b := testBuffer(func() {})
	l := NewEventLog(64)
	r := NewRegistry()
	r.Add(&Watch{Metric: "edwp", Threshold: 1}, []uint64{1, 2, 3})
	var wg sync.WaitGroup
	now := time.Unix(0, 0)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				b.Append(g, 0, []traj.Point{pt(float64(i), float64(g), float64(i))}, now, func(tr *Track, fresh []uint64) {
					for _, id := range r.Collide(fresh) {
						tr.SetGated(id)
					}
				})
				l.Publish(Event{Watch: g, Track: i})
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			b.ForgetWatch(1)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			snaps := b.Snapshot()
			if !sort.SliceIsSorted(snaps, func(a, b int) bool { return snaps[a].ID < snaps[b].ID }) {
				t.Error("Snapshot not in ID order")
				return
			}
			b.Count()
			l.After(0, 16)
			select {
			case <-l.WaitCh():
			default:
			}
		}
	}()
	wg.Wait()
	if l.LastSeq() != 200 {
		t.Fatalf("LastSeq = %d, want 200", l.LastSeq())
	}
}
