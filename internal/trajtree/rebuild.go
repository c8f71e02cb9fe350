package trajtree

import (
	"fmt"
	"sync"
	"time"

	"trajmatch/internal/traj"
)

// Rebuilding restores tight summaries after many updates by bulk-loading
// the index again — automatically once inserts+deletes since the last
// trigger exceed RebuildRatio × size, or on request. No caller waits for
// the bulk load:
//
//   - freeze: a serialised call copies the member list (fresh headers over
//     the same read-only point slices), resets mods and hands the list to
//     one goroutine that runs New over it. The live tree keeps answering
//     and keeps taking Insert/Delete; every mutation applied while the
//     build is in flight is also appended, in order, to the build's delta.
//   - catch-up: once built, the goroutine replays the delta onto the fresh
//     tree in rounds until it finds none left, then signals completion.
//   - adopt: the next serialised call — Insert, Delete, AdoptRebuild —
//     replays whatever the delta gained since (a few operations) and takes
//     the fresh tree's root, arena, index, counters and random stream.
//
// A mutation that crosses the threshold while a build is still in flight
// waits for it, adopts it and then starts the next. Triggers therefore
// depend on operation counts alone, the delta never outgrows
// RebuildRatio × size (+1, the crossing operation), and whatever the
// timing the adopted tree is New(members at the trigger) with the later
// operations applied in order.

// deltaOp is one mutation applied to the live tree while a build is in
// flight: the insert of ins, or the delete of ID del when ins is nil.
type deltaOp struct {
	ins *traj.Trajectory
	del int
}

// rebuild is one background build, from freeze to adoption.
type rebuild struct {
	// done is closed by the build goroutine once it will not touch fresh
	// again; fresh, err, applied and buildDur are its to write before
	// that and the adopter's to read after.
	done     chan struct{}
	fresh    *Tree
	err      error
	applied  int // prefix of delta already replayed onto fresh
	buildDur time.Duration

	mu    sync.Mutex // guards delta
	delta []deltaOp
}

// RebuildStats describes the last adopted rebuild.
type RebuildStats struct {
	// BuildMs is the background build's wall time: the bulk load plus the
	// catch-up rounds.
	BuildMs float64 `json:"build_ms"`
	// AdoptMs is the time the adopting call spent replaying the rest of
	// the delta and swapping the tree in — the only part of a rebuild
	// that readers and writers of the tree wait for — and Replayed the
	// number of operations it replayed.
	AdoptMs  float64 `json:"adopt_ms"`
	Replayed int     `json:"replayed"`
}

// rebuildEvent names the points at which tests steer a rebuild through
// Tree.hook.
type rebuildEvent int

const (
	// hookBuilt: on the build goroutine, after the bulk load and before
	// the first catch-up round. A build held here replays the whole
	// delta itself once let go.
	hookBuilt rebuildEvent = iota
	// hookCaughtUp: on the build goroutine, after the last catch-up round
	// and before it signals completion. What the delta gains while a
	// build is held here is the adopting call's to replay.
	hookCaughtUp
	// hookWait: on the caller, before it blocks on an unfinished build.
	hookWait
)

// Rebuild reconstructs the index, restoring tight summaries after many
// updates, and returns once the new tree is in place: it starts a build
// unless one is in flight, waits for it and adopts it.
func (t *Tree) Rebuild() error {
	t.StartRebuild()
	t.waitRebuild()
	return t.adopt()
}

// StartRebuild freezes the member list and starts a background build,
// unless one is already in flight. It needs the serialisation of an
// update.
func (t *Tree) StartRebuild() {
	if t.rb == nil {
		t.startRebuild()
	}
}

// RebuildDone returns the channel the build in flight closes when it is
// ready for AdoptRebuild, nil when none is in flight. Waiting on the
// channel needs no serialisation.
func (t *Tree) RebuildDone() <-chan struct{} {
	if t.rb == nil {
		return nil
	}
	return t.rb.done
}

// AdoptRebuild swaps a finished build in and reports whether it did; with
// no build in flight, or one still building, it does nothing. It needs
// the serialisation of an update.
func (t *Tree) AdoptRebuild() (bool, error) {
	if t.rb == nil {
		return false, nil
	}
	select {
	case <-t.rb.done:
		return true, t.adopt()
	default:
		return false, nil
	}
}

// adoptIfReady is how Insert and Delete pick a finished build up. The
// build replays mutations this tree has already accepted over members it
// has already validated: it cannot fail, and if it did the live tree
// simply stays.
func (t *Tree) adoptIfReady() { _, _ = t.AdoptRebuild() }

// mutated records a mutation just applied to the live tree: in the delta
// of the build in flight, and against the rebuild threshold.
func (t *Tree) mutated(op deltaOp) {
	if rb := t.rb; rb != nil {
		rb.mu.Lock()
		rb.delta = append(rb.delta, op)
		rb.mu.Unlock()
	}
	if t.background || t.opt.RebuildRatio < 0 || t.size == 0 ||
		float64(t.mods) <= t.opt.RebuildRatio*float64(t.size) {
		return
	}
	if t.rb != nil {
		t.waitRebuild()
		_ = t.adopt() // cannot fail, see adoptIfReady
	}
	t.startRebuild()
}

// startRebuild freezes the member list and hands it to the build
// goroutine. Current members have escaped to readers through query
// results, and arena.Build re-points each trajectory's Points at its new
// slab — a write no lock covers once a result is out. The build therefore
// gets fresh headers over the same (read-only) point slices: the escaped
// headers are never touched, they just keep aliasing the previous slabs
// until their holders drop them.
func (t *Tree) startRebuild() {
	members := t.All()
	for i, m := range members {
		h := traj.New(m.ID, m.Points)
		h.Label = m.Label
		members[i] = h
	}
	t.mods = 0
	t.rb = &rebuild{done: make(chan struct{})}
	go t.rb.run(members, t.opt, t.hook)
}

// run is the build goroutine: bulk load, then catch up with the delta.
// Each round replays what the previous one let accumulate, so the rounds
// shrink as long as replaying is faster than the writers, and the
// threshold wait in mutated stops the writers if it is not.
func (rb *rebuild) run(members []*traj.Trajectory, opt Options, hook func(rebuildEvent)) {
	defer close(rb.done)
	start := time.Now()
	if rb.fresh, rb.err = newTree(members, opt, true); rb.err != nil {
		return
	}
	if hook != nil {
		hook(hookBuilt)
	}
	for {
		rb.mu.Lock()
		pending := rb.delta[rb.applied:]
		rb.mu.Unlock()
		if len(pending) == 0 {
			break
		}
		if rb.err = rb.fresh.replay(pending); rb.err != nil {
			return
		}
		rb.applied += len(pending)
	}
	rb.buildDur = time.Since(start)
	if hook != nil {
		hook(hookCaughtUp)
	}
}

// waitRebuild blocks until the build in flight is ready for adoption.
func (t *Tree) waitRebuild() {
	if t.hook != nil {
		t.hook(hookWait)
	}
	<-t.rb.done
}

// adopt replays the rest of the delta onto the finished build and swaps
// it in. mods stays: it has counted exactly the delta's operations since
// the freeze reset it.
func (t *Tree) adopt() error {
	rb := t.rb
	t.rb = nil
	start := time.Now()
	tail := rb.delta[rb.applied:]
	if rb.err == nil {
		rb.err = rb.fresh.replay(tail)
	}
	if rb.err != nil {
		return rb.err
	}
	fresh := rb.fresh
	t.root, t.ar, t.byID = fresh.root, fresh.ar, fresh.byID
	t.size, t.overlay = fresh.size, fresh.overlay
	// The fresh stream too: splits after the swap then draw from a
	// position that depends on the frozen members and the delta alone,
	// not on what this tree drew before the freeze.
	t.rng = fresh.rng
	t.foldIns++
	t.last = RebuildStats{
		BuildMs:  ms(rb.buildDur),
		AdoptMs:  ms(time.Since(start)),
		Replayed: len(tail),
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// replay applies ops, in order, to a rebuild's fresh tree.
func (t *Tree) replay(ops []deltaOp) error {
	for _, op := range ops {
		if op.ins != nil {
			if err := t.Insert(op.ins); err != nil {
				return fmt.Errorf("trajtree: rebuild replay: %w", err)
			}
		} else if !t.Delete(op.del) {
			return fmt.Errorf("trajtree: rebuild replay: delete of %d found nothing", op.del)
		}
	}
	return nil
}
