package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"trajmatch"
	"trajmatch/internal/wal"
)

const (
	deltaPoints = 4   // points per /v1/append
	mutateEvery = 10  // one insert and one delete per this many tracks
	writerRate  = 300 // requests per second of the open-loop writer
	liveWindow  = 16  // tracks the mixed-phase writer keeps growing at once
	// watchThreshold is the EDwPsub distance at which a watch fires: low
	// enough that most (append, watch) pairs stay behind the token gate,
	// high enough that some tracks match.
	watchThreshold = 300.0
	// writeShare of ingest-mixed's measured time is what the write phase
	// takes on the box this was sized on, at writeTracksPerSecond new tracks
	// per measured second; the rest goes to the mixed phase. The write
	// phase is a fixed number of tracks, not a fixed time, because the tree
	// rebuilds itself after every RebuildRatio x size mutations and each
	// rebuild stalls writes for over a second: with a fixed count the
	// rebuilds fall at the same requests in every run.
	writeShare           = 0.4
	writeTracksPerSecond = 80
	// New tracks and inserted trajectories get IDs far from the base's.
	trackIDBase  = 1_000_000
	insertIDBase = 2_000_000
)

// op is one prepared write request.
type op struct {
	kind   string // "append", "seal", "insert", "delete" or "snapshot"
	path   string
	body   []byte
	id     int
	length int // append: the track's point count once acknowledged
	pts    []trajmatch.STPoint
	tr     *trajmatch.Trajectory
}

func appendOp(t *trajmatch.Trajectory, from int) op {
	to := min(from+deltaPoints, len(t.Points))
	pts := t.Points[from:to]
	w := toWire(&trajmatch.Trajectory{ID: t.ID, Points: pts})
	return op{kind: "append", path: "/v1/append", id: t.ID, length: to, pts: pts, body: mustJSON(w)}
}

func sealOp(id int) op {
	return op{kind: "seal", path: "/v1/seal", id: id, body: mustJSON(map[string]int{"id": id})}
}

// writeOps is the write phase's sequence: each track as deltas then a
// seal, and beside every mutateEvery-th track one insert of a new
// trajectory and one delete of a base trajectory.
func writeOps(tracks, extra, base []*trajmatch.Trajectory) []op {
	var ops []op
	for j, t := range tracks {
		for from := 0; from < len(t.Points); from += deltaPoints {
			ops = append(ops, appendOp(t, from))
		}
		ops = append(ops, sealOp(t.ID))
		if j%mutateEvery == 0 && j/mutateEvery < min(len(extra), len(base)) {
			e := extra[j/mutateEvery]
			ops = append(ops,
				op{kind: "insert", path: "/v1/insert", id: e.ID, tr: e, body: mustJSON(map[string][]wireTraj{"trajectories": {toWire(e)}})},
				op{kind: "delete", path: "/v1/delete", id: base[j/mutateEvery].ID, body: mustJSON(map[string][]int{"ids": {base[j/mutateEvery].ID}})})
		}
	}
	return ops
}

// mixedOps is the mixed-phase writer's sequence: liveWindow tracks grow
// round-robin, each sealed when complete and replaced by the next, so
// readers always find live tracks to scan. One snapshot request sits at
// position snapshotAt.
func mixedOps(tracks []*trajmatch.Trajectory, snapshotAt int) []op {
	var ops []op
	type slot struct {
		t    *trajmatch.Trajectory
		from int
	}
	next := 0
	slots := make([]slot, 0, liveWindow)
	for len(slots) < liveWindow && next < len(tracks) {
		slots = append(slots, slot{t: tracks[next]})
		next++
	}
	for live := len(slots); live > 0; {
		for i := range slots {
			s := &slots[i]
			if s.t == nil {
				continue
			}
			if len(ops) == snapshotAt {
				ops = append(ops, op{kind: "snapshot", path: "/v1/snapshot"})
			}
			if s.from < len(s.t.Points) {
				ops = append(ops, appendOp(s.t, s.from))
				s.from += deltaPoints
				continue
			}
			ops = append(ops, sealOp(s.t.ID))
			if next < len(tracks) {
				*s = slot{t: tracks[next]}
				next++
			} else {
				s.t = nil
				live--
			}
		}
	}
	return ops
}

// writer sends ops over one connection and checks every acknowledgement.
type writer struct {
	r           *run
	c           *client
	t0          time.Time           // start of the current phase
	samples     map[string][]sample // by op kind
	live        map[int]int         // acknowledged point count of every live track
	ackedPoints float64             // points of acknowledged appends and inserts
	snapshotted bool
	// after runs once an op is acknowledged: the traced run's replays.
	after func(o op, lat time.Duration)
}

func (r *run) newWriter(url string) *writer {
	return &writer{r: r, c: r.newClient(url), samples: map[string][]sample{}, live: map[int]int{}}
}

// send issues o, timing it from `from` (the send time of a closed loop,
// the due time of an open one), and checks the acknowledgement.
func (w *writer) send(o op, from time.Time) {
	w.r.attempted.Add(1)
	status, body, _, err := w.c.post(o.path, o.body)
	lat := time.Since(from)
	if err != nil || status != http.StatusOK {
		w.r.fail("%s of %d: status %d: %s %v", o.kind, o.id, status, body, err)
		return
	}
	at := from.Sub(w.t0).Seconds()
	w.samples[o.kind] = append(w.samples[o.kind], sample{at, ms(lat)})
	var ack struct {
		Length   int `json:"length"`
		Inserted int `json:"inserted"`
		Deleted  int `json:"deleted"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		w.r.fail("%s of %d: undecodable acknowledgement: %v", o.kind, o.id, err)
		return
	}
	switch o.kind {
	case "append":
		if ack.Length != o.length {
			w.r.fail("append to %d acknowledged length %d, want %d", o.id, ack.Length, o.length)
		}
		w.live[o.id] = o.length
		w.ackedPoints += float64(len(o.pts))
	case "seal":
		delete(w.live, o.id)
	case "insert":
		if ack.Inserted != 1 {
			w.r.fail("insert of %d acknowledged %d", o.id, ack.Inserted)
		}
		w.ackedPoints += float64(len(o.tr.Points))
	case "delete":
		if ack.Deleted != 1 {
			w.r.fail("delete of %d acknowledged %d", o.id, ack.Deleted)
		}
	case "snapshot":
		w.snapshotted = true
	}
	if w.after != nil {
		w.after(o, lat)
	}
}

// closed sends ops one after another and returns the wall time.
func (w *writer) closed(ops []op) time.Duration {
	w.t0 = time.Now()
	for _, o := range ops {
		w.send(o, time.Now())
	}
	return time.Since(w.t0)
}

// open sends ops on a fixed schedule until stop closes: op i is due at
// t0 + i/writerRate and is timed from then, so a stall shows in every
// request it delays. It returns how late, in ms, each request left.
func (w *writer) open(ops []op, stop <-chan struct{}, peak func()) []float64 {
	w.t0 = time.Now()
	var late []float64
	for i, o := range ops {
		due := w.t0.Add(time.Duration(i) * time.Second / writerRate)
		select {
		case <-stop:
			return late
		case <-time.After(time.Until(due)):
		}
		late = append(late, ms(time.Since(due)))
		w.send(o, due)
		peak()
	}
	return late
}

// ingestMixed: writes beside reads on one durable engine. Phase write
// sends new tracks as appends and seals, with inserts and deletes, from
// one closed-loop client. Phase mixed runs an open-loop writer at a fixed
// rate beside a closed-loop reader, with one snapshot in its middle.
// Phase recover abandons the engine without Close and reboots it from the
// snapshot and the WAL.
func ingestMixed(r *run) error {
	t0 := time.Now()
	base := genTaxi(r.sz.ingestBase, 0)
	tracks := genTaxi(r.sz.tracks, 2)
	for i, t := range tracks {
		t.ID = trackIDBase + i
	}
	// The write phase sends the same tracks whatever the seed, in a seeded
	// order; the mixed phase's writer gets as far into its half as time lets it.
	half := len(tracks) / 2
	writeTracks := min(half, int(r.cfg.seconds*writeTracksPerSecond))
	if r.tr != nil {
		writeTracks = min(half, r.sz.traceTracks)
	}
	written, mixed := shuffled(tracks[:writeTracks], r.cfg.seed), shuffled(tracks[half:], r.cfg.seed)
	extra := genTaxi(r.sz.tracks/(2*mutateEvery)+1, 3)
	for i, t := range extra {
		t.ID = insertIDBase + i
	}
	qs := genTaxi(r.sz.readers+r.sz.watches+r.sz.recoverKNN, querySeedOffset)
	readers, patterns, probes := shuffled(qs[:r.sz.readers], r.cfg.seed), qs[r.sz.readers:r.sz.readers+r.sz.watches], qs[r.sz.readers+r.sz.watches:]
	genS := since(t0)

	eopt := trajmatch.EngineOptions{Prefilter: true, WALDir: filepath.Join(r.dir, "wal"), SnapshotDir: filepath.Join(r.dir, "snapshot")}
	eng, err := trajmatch.NewEngine(base, indexOptions(), eopt)
	if err != nil {
		return err
	}
	url, err := r.serveEngine("standalone", eng)
	if err != nil {
		return err
	}
	setup := r.newClient(url)
	for _, p := range patterns {
		body := mustJSON(map[string]any{"pattern": toWire(p), "threshold": watchThreshold})
		if status, resp, _, err := setup.post("/v1/watch", body); err != nil || status != http.StatusOK {
			return fmt.Errorf("registering a watch: status %d: %s %v", status, resp, err)
		}
	}
	reads := make([]request, len(readers))
	for i, q := range readers {
		reads[i] = searchRequest("knn", q)
	}
	wops := writeOps(written, extra, base)
	r.ready(t0)

	var tw *twin
	w := r.newWriter(url)
	if r.tr != nil {
		r.set("bench.synth_gen_s", genS)
		if tw, err = r.newTwin(base, patterns, w); err != nil {
			return err
		}
	}
	start := eng.Stats()

	// Phase write.
	wall := w.closed(wops)
	wrote := eng.Stats()
	if r.tr == nil {
		r.setQuiet("append_p50_ms", chunks(w.samples["append"], numSlices), p50)
		r.set("ingest_points_per_s", w.ackedPoints/wall.Seconds())
	} else {
		tw.report(w, start, wrote)
	}
	w.after = nil

	// Phase mixed.
	mixedFor := time.Duration(r.cfg.seconds * (1 - writeShare) * float64(time.Second))
	mops := mixedOps(mixed, int(mixedFor.Seconds()*writerRate/2))
	rl := loop{url: url, reqs: reads, clients: 1, d: mixedFor, pick: inOrder(len(reads))}
	if r.tr != nil {
		rl.d, rl.limit = 0, r.sz.traceReqs
		mops = mixedOps(mixed, rl.limit/4)
	}
	stop := make(chan struct{})
	var late []float64
	peakLive := 0
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		late = w.open(mops, stop, func() { peakLive = max(peakLive, eng.LiveTracks()) })
	}()
	rp := r.closedLoop(rl)
	close(stop)
	wg.Wait()
	if !w.snapshotted {
		r.note("the mixed phase ended before its snapshot was due; taken at its end")
		w.send(op{kind: "snapshot", path: "/v1/snapshot"}, time.Now())
	}
	if r.tr == nil {
		knn := timeSlices(rp.samples[0], rp.wall.Seconds(), numSlices)
		r.setQuiet("search_p50_ms", knn, p50)
		r.setQuietRate("search_qps", knn, rp.wall.Seconds())
	} else {
		end := eng.Stats()
		r.set("stream.live_tracks_peak", float64(peakLive))
		r.set("stream.events_published", float64(end.Stream.EventSeq-start.Stream.EventSeq))
		r.set("bench.gen_lateness_p95_ms", p95(sorted(late)))
		seen := make([]float64, len(rp.samples[0]))
		for i, s := range rp.samples[0] {
			seen[i] = s.v
		}
		r.set("bench.search_p95_ms", p95(sorted(seen)))
		r.set("server.snapshot_save_s", w.samples["snapshot"][0].v/1000)
	}

	return r.recoverPhase(eng, eopt, w, probes)
}

// reboots is how many times the recover phase boots from the abandoned
// engine's files; recover_s is the fastest, by the argument at numPasses.
const reboots = 3

// recoverPhase records what the engine holds, abandons it without Close,
// and reboots from the snapshot directory plus WAL replay, timing each
// reboot up to its first answer over HTTP and comparing the rebooted
// state with the recorded one.
func (r *run) recoverPhase(eng *trajmatch.Engine, eopt trajmatch.EngineOptions, w *writer, probes []*trajmatch.Trajectory) error {
	knn := func(e *trajmatch.Engine, q *trajmatch.Trajectory) ([]neighbor, error) {
		a, err := e.Search(context.Background(), q, trajmatch.Query{Kind: trajmatch.QueryKNN, K: knnK})
		if err != nil {
			return nil, err
		}
		ns := make([]neighbor, len(a.Results))
		for i, res := range a.Results {
			ns[i] = neighbor{ID: res.Traj.ID, Dist: res.Dist}
		}
		return ns, nil
	}
	size := eng.Size()
	before := make([][]neighbor, len(probes))
	for i, q := range probes {
		var err error
		if before[i], err = knn(eng, q); err != nil {
			return err
		}
	}
	if r.tr != nil {
		if err := r.traceRecovery(eopt); err != nil {
			return err
		}
	}
	first := searchRequest("knn", probes[0])
	var took []float64
	for boot := 0; boot < reboots; boot++ {
		t0 := time.Now()
		re, err := trajmatch.LoadEngineSnapshot(eopt.SnapshotDir, eopt)
		if err != nil {
			return fmt.Errorf("reboot: %w", err)
		}
		url, err := r.serveEngine("rebooted", re)
		if err != nil {
			return err
		}
		c := r.newClient(url)
		c.tr = nil
		r.attempted.Add(1)
		if status, body, _, err := c.post(first.path, first.body); err != nil || status != http.StatusOK {
			r.fail("first request after reboot: status %d: %s %v", status, body, err)
		}
		took = append(took, since(t0))

		r.expect(re.Size() == size, "rebooted engine holds %d trajectories, want %d", re.Size(), size)
		r.expect(re.LiveTracks() == len(w.live), "rebooted engine holds %d live tracks, want %d", re.LiveTracks(), len(w.live))
		for id, n := range w.live {
			snap, _ := re.LiveTrack(id)
			r.expect(len(snap.Points) == n, "live track %d has %d points after reboot, %d were acknowledged", id, len(snap.Points), n)
		}
		for i, q := range probes {
			after, err := knn(re, q)
			if err != nil {
				return err
			}
			r.expect(sameNeighbors(after, before[i]), "k-NN probe %d answers %v after reboot, %v before", i, after, before[i])
		}
	}
	if r.tr == nil {
		r.metrics["recover_s"] = sorted(took)[0]
		r.details["recover_s"] = detail{PerPass: took}
	}
	r.checked = true
	return nil
}

// traceRecovery times the recovery path's layers one at a time, on the
// files the abandoned engine left: WAL decode alone, a heap load of the
// snapshot, and an mmap load.
func (r *run) traceRecovery(eopt trajmatch.EngineOptions) error {
	l, err := wal.Open(wal.Options{Dir: eopt.WALDir})
	if err != nil {
		return err
	}
	records := 0
	var rerr error
	d := r.tr.timed("wal.replay", "wal", func() {
		rerr = l.Replay(func(wal.Record) error { records++; return nil })
	})
	if cerr := l.Close(); rerr == nil {
		rerr = cerr
	}
	if rerr != nil {
		return fmt.Errorf("replaying the WAL directly: %w", rerr)
	}
	r.set("wal.replay_records_per_s", ratio(float64(records), d.Seconds()))

	for _, mmap := range []bool{false, true} {
		var e *trajmatch.Engine
		d := r.tr.timed("snapshot.load", "arena", func() {
			e, err = trajmatch.LoadEngineSnapshot(eopt.SnapshotDir, trajmatch.EngineOptions{Mmap: mmap})
		})
		if err != nil {
			return fmt.Errorf("loading the snapshot (mmap %v): %w", mmap, err)
		}
		if !mmap {
			r.set("server.snapshot_load_s", d.Seconds())
		} else {
			r.set("arena.mmap_boot_ms", ms(d))
			points := 0
			for _, sh := range e.Stats().PerShard {
				if sh.Mem != nil {
					points += sh.Mem.Arena.Points
				}
			}
			files, err := filepath.Glob(filepath.Join(eopt.SnapshotDir, "*.arena"))
			if err != nil {
				return err
			}
			var bytes int64
			for _, f := range files {
				if fi, err := os.Stat(f); err == nil {
					bytes += fi.Size()
				}
			}
			r.set("arena.bytes_per_point", ratio(float64(bytes), float64(points)))
		}
		if err := e.Close(); err != nil {
			return err
		}
	}
	return nil
}

// twin is the traced write phase's comparison: an engine like the
// measured one but without a WAL, and a WAL of its own with no engine.
// After each traced request the same mutation is applied to both, so the
// append's time splits into what the log costs and what the rest costs.
type twin struct {
	r   *run
	eng *trajmatch.Engine
	log *wal.Log

	client, handler, noWAL, walUS []float64 // per append, µs
	handlerMS                     map[string][]float64
}

func (r *run) newTwin(base, patterns []*trajmatch.Trajectory, w *writer) (*twin, error) {
	e, err := trajmatch.NewEngine(base, indexOptions(), trajmatch.EngineOptions{Prefilter: true})
	if err != nil {
		return nil, err
	}
	r.onClose(e.Close)
	for _, p := range patterns {
		if _, err := e.Watch(p, "", watchThreshold, 0, false); err != nil {
			return nil, err
		}
	}
	l, err := wal.Open(wal.Options{Dir: filepath.Join(r.dir, "wal-direct")})
	if err != nil {
		return nil, err
	}
	r.onClose(l.Close)
	if err := l.Replay(func(wal.Record) error { return nil }); err != nil {
		return nil, err
	}
	t := &twin{r: r, eng: e, log: l, handlerMS: map[string][]float64{}}
	w.after = t.replay
	return t, nil
}

// replay applies o to the twin engine and, for an append, writes a record
// of the same size to the bare log under the default `always` policy.
func (t *twin) replay(o op, lat time.Duration) {
	handler := t.r.tr.lastDur("http.handler", "standalone")
	t.handlerMS[o.kind] = append(t.handlerMS[o.kind], ms(handler))
	var err error
	switch o.kind {
	case "append":
		offset := o.length - len(o.pts)
		d := t.r.tr.timed("engine.append", "stream", func() { _, err = t.eng.Append(o.id, 0, o.pts) })
		var werr error
		wd := t.r.tr.timed("wal.append", "wal", func() {
			var lsn uint64
			if lsn, werr = t.log.Append(wal.AppendPoints(o.id, 0, offset, o.pts)); werr == nil {
				werr = t.log.Commit(lsn)
			}
		})
		if werr != nil {
			t.r.fail("direct WAL append: %v", werr)
		}
		t.client, t.handler = append(t.client, us(lat)), append(t.handler, us(handler))
		t.noWAL, t.walUS = append(t.noWAL, us(d)), append(t.walUS, us(wd))
	case "seal":
		err = t.eng.Seal(o.id)
	case "insert":
		err = t.eng.Insert(o.tr)
	case "delete":
		t.eng.Delete(o.id)
	}
	if err != nil {
		t.r.fail("twin %s of %d: %v", o.kind, o.id, err)
	}
}

// report sets the write-path metrics from the traced write phase and the
// engine's counters before and after it.
func (t *twin) report(w *writer, start, wrote trajmatch.EngineStats) {
	r := t.r
	appends := float64(wrote.Stream.Appends - start.Stream.Appends)
	evals := float64(wrote.Stream.WatchEvals - start.Stream.WatchEvals)
	skips := float64(wrote.Stream.WatchGateSkips - start.Stream.WatchGateSkips)
	r.set("wal.append_us", mean(t.walUS))
	r.set("wal.syncs_per_append", ratio(float64(wrote.WAL.Syncs-start.WAL.Syncs), float64(wrote.WAL.Appends-start.WAL.Appends)))
	r.set("wal.bytes_per_point", ratio(float64(wrote.WAL.SizeBytes-start.WAL.SizeBytes), w.ackedPoints))
	r.set("stream.append_nowal_us", mean(t.noWAL))
	r.set("stream.watch_evals_per_append", ratio(evals, appends))
	r.set("stream.gate_skip_share", ratio(skips, skips+evals))
	r.set("server.seal_ms", mean(t.handlerMS["seal"]))
	r.set("server.insert_ms", mean(t.handlerMS["insert"]))
	r.set("server.delete_ms", mean(t.handlerMS["delete"]))
	r.set("server.http_self_us", mean(t.handler)-mean(t.noWAL)-mean(t.walUS))
	r.set("server.client_overhead_us", mean(t.client)-mean(t.handler))
	r.set("bench.append_p95_ms", p95(sorted(t.client))/1000)
	r.addShares("append", mean(t.client), map[string]float64{
		"wal": mean(t.walUS), "stream+server write path": mean(t.noWAL),
		"server http": mean(t.handler) - mean(t.noWAL) - mean(t.walUS), "bench": mean(t.client) - mean(t.handler),
	})
}
