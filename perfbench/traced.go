package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"mpi4spark/internal/bytebuf"
	"mpi4spark/internal/fabric"
	"mpi4spark/internal/harness"
	"mpi4spark/internal/metrics"
	"mpi4spark/internal/obs"
	"mpi4spark/internal/spark"
	"mpi4spark/internal/spark/shuffle"
	"mpi4spark/internal/spark/shuffleservice"
	"mpi4spark/internal/vtime"
)

// repTrace is what one traced repetition on one backend recorded: the
// listener bus's events, the fabric transfer hook's tallies, and counter
// deltas taken from snapshots around the repetition.
type repTrace struct {
	rec   repRecord
	start time.Time // when the repetition started (after set-up)

	events   []obs.Event
	counters map[string]int64 // metrics.Snapshot().Delta()
	msgs     int64            // Fabric.Stats message delta
	bytes    int64            // Fabric.Stats byte delta
	hookMsgs int64            // transfers the hook saw
	wireVT   time.Duration    // unloaded TransferTime over non-loopback transfers
	rx       []int64          // RxBytes delta per worker node
	bufGets  int64            // bytebuf.Default Get calls
	bufHits  int64            // of which served by reuse
	profile  []byte
}

// beginTrace installs the listener and the transfer hook on a freshly
// built cluster, snapshots the counters and starts the CPU profile. The
// returned function undoes all of it and completes t.
func beginTrace(t *repTrace, cl *harness.Cluster, workers int) func() {
	col := &obs.Collector{}
	cl.Ctx.Bus().Subscribe(col)
	var hookMsgs, wire atomic.Int64
	cl.Fabric.SetTransferHook(func(from, to *fabric.Node, proto fabric.Protocol, n int, _ vtime.Stamp) {
		hookMsgs.Add(1)
		if from != to {
			wire.Add(int64(cl.Fabric.TransferTime(proto, n)))
		}
	})
	nodes := make([]*fabric.Node, workers)
	rx0 := make([]int64, workers)
	for k := range nodes {
		nodes[k] = cl.Fabric.Node(fmt.Sprintf("w%d", k))
		rx0[k] = nodes[k].RxBytes()
	}
	snap := metrics.Snapshot()
	stats0 := cl.Fabric.Stats()
	gets0, hits0 := bytebuf.Default.Stats()
	var prof bytes.Buffer
	profiling := pprof.StartCPUProfile(&prof) == nil
	t.start = time.Now()

	return func() {
		if profiling {
			pprof.StopCPUProfile()
			t.profile = prof.Bytes()
		}
		stats1 := cl.Fabric.Stats()
		gets1, hits1 := bytebuf.Default.Stats()
		t.bufGets, t.bufHits = gets1-gets0, hits1-hits0
		t.counters = snap.Delta()
		t.hookMsgs = hookMsgs.Load()
		cl.Fabric.SetTransferHook(nil)
		t.wireVT = time.Duration(wire.Load())
		for p := range stats1.Messages {
			t.msgs += stats1.Messages[p] - stats0.Messages[p]
			t.bytes += stats1.Bytes[p] - stats0.Bytes[p]
		}
		for k, n := range nodes {
			t.rx = append(t.rx, n.RxBytes()-rx0[k])
		}
		t.events = col.Events()
	}
}

// reconcile checks a traced repetition's books: the task records' shuffle
// bytes must equal the fetch counters, and the hook must have seen every
// message the fabric counted.
func (t *repTrace) reconcile() error {
	var local, remote int64
	for _, e := range t.events {
		if e.Type == obs.EvTaskEnd {
			local += e.BytesLocal
			remote += e.BytesRemote
		}
	}
	if c := t.counters["shuffle.fetch.bytes_local"]; local != c {
		return fmt.Errorf("task records read %d local bytes, counter %d", local, c)
	}
	if c := t.counters["shuffle.fetch.bytes_remote"]; remote != c {
		return fmt.Errorf("task records read %d remote bytes, counter %d", remote, c)
	}
	if t.hookMsgs != t.msgs {
		return fmt.Errorf("transfer hook saw %d transfers, fabric counted %d messages", t.hookMsgs, t.msgs)
	}
	return nil
}

// traceRun is the traced run. It alternates an untraced round with a
// traced round on the same inputs until the time is up, then runs the
// layer micro-drivers and the Fig. 8 ping-pong, and reports every
// per-layer metric. The spans go to a Chrome trace file in outDir.
func traceRun(w *workload, seed int64, seconds time.Duration, sz size, outDir string, logf func(string, ...any)) (*outcome, error) {
	out := &outcome{Metrics: map[string]metric{}}
	traces := make([][]*repTrace, len(backends))
	cpu := map[string]int64{}
	var plain, traced cost
	rounds := 0

	start := time.Now()
	for r := 0; r < sz.tracedRounds || time.Since(start) < seconds; r++ {
		rs := roundSeed(seed, r)
		untraced := func() {
			recs := runRound(w, rs, sz, nil)
			tally(w, sz, r, recs, out, logf)
			for _, rec := range recs {
				plain.wall += rec.cost.wall
				plain.mallocs += rec.cost.mallocs
				plain.gc += rec.cost.gc
			}
		}
		// Alternate which of the pair runs first, so warm-up and drift
		// fall on both sides of trace_overhead_pct.
		if r%2 == 0 {
			untraced()
		}
		cur := make([]*repTrace, len(backends))
		recs := runRound(w, rs, sz, func(i int, cl *harness.Cluster) func() {
			cur[i] = &repTrace{}
			return beginTrace(cur[i], cl, w.spec(backends[i].b).Workers)
		})
		tally(w, sz, r, recs, out, logf)
		if r%2 == 1 {
			untraced()
		}
		for i, rec := range recs {
			traced.wall += rec.cost.wall
			t := cur[i]
			if t == nil || rec.err != nil {
				continue
			}
			t.rec = rec
			if err := t.reconcile(); err != nil {
				logf("round %d %s: %v", r, backends[i].name, err)
				out.Failed += w.unitsPerRep(sz)
			}
			if err := cpuByLayer(t.profile, cpu); err != nil {
				return nil, fmt.Errorf("CPU profile of %s: %w", backends[i].name, err)
			}
			traces[i] = append(traces[i], t)
		}
		rounds++
	}
	logf("%s: %d traced rounds in %.1fs", w.name, rounds, time.Since(start).Seconds())

	m := out.Metrics
	for i, be := range backends {
		backendLayers(traces[i], be.name, sz.tracedRounds, m)
	}
	sharedLayers(traces, m)
	var samples int64
	for _, n := range cpu {
		samples += n
	}
	for _, l := range layers {
		m["cpu_pct."+l] = metric{pct(cpu[l], samples), "%"}
	}
	m["mallocs_k"] = metric{float64(plain.mallocs) / 1e3 / float64(rounds), "count"}
	m["gc_cycles"] = metric{float64(plain.gc) / float64(rounds), "count"}
	m["trace_overhead_pct"] = metric{100 * (ratio(float64(traced.wall), float64(plain.wall)) - 1), "%"}

	if err := runMicro(sz.microBenchDuration, m); err != nil {
		return nil, err
	}
	out.Attempted++
	if err := pingPong(m); err != nil {
		logf("%v", err)
		out.Failed++
	}

	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
	if err := writeChromeTrace(path, spans(traces, start)); err != nil {
		return nil, err
	}
	logf("trace written to %s", path)
	out.Correct = out.Failed == 0
	return out, nil
}

func pct(n, total int64) float64 { return 100 * ratio(float64(n), float64(total)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// eventStats are the event-log figures of one backend's traced
// repetitions.
type eventStats struct {
	tasks int
	// Sums over the tasks of reduce stages (stages whose tasks read
	// shuffle bytes): virtual time blocked on fetch, and task time.
	reduceFetchWait, reduceTaskTime vtime.Stamp
	taskComputeMs                   []float64 // per task: task time minus fetch wait
	driverGapMs                     []float64 // per job: job time minus its stages' union
	reduceSkew                      []float64 // per reduce stage: max over median task time
	schedDelayMs                    []float64 // per micro-batch
}

type stageKey struct{ job, stage int }

// extractEvents derives eventStats from one repetition's event stream.
func extractEvents(events []obs.Event, into *eventStats) {
	jobStart := map[int]vtime.Stamp{}
	jobEnd := map[int]vtime.Stamp{}
	stageStart := map[stageKey]vtime.Stamp{}
	stageSpans := map[int][][2]vtime.Stamp{}
	taskTimes := map[stageKey][]float64{}
	reduce := map[stageKey]bool{}
	var tasks []obs.Event
	for _, e := range events {
		k := stageKey{e.Job, e.Stage}
		switch e.Type {
		case obs.EvJobStart:
			jobStart[e.Job] = e.VT
		case obs.EvJobEnd:
			jobEnd[e.Job] = e.VT
		case obs.EvStageSubmitted:
			stageStart[k] = e.VT
		case obs.EvStageCompleted:
			if s, ok := stageStart[k]; ok {
				stageSpans[e.Job] = append(stageSpans[e.Job], [2]vtime.Stamp{s, e.VT})
			}
		case obs.EvTaskEnd:
			tasks = append(tasks, e)
			taskTimes[k] = append(taskTimes[k], float64(e.VT-e.Start))
			if e.BytesLocal+e.BytesRemote > 0 {
				reduce[k] = true
			}
		case obs.EvBatchCompleted:
			into.schedDelayMs = append(into.schedDelayMs, float64(e.SchedDelay)/1e6)
		}
	}
	into.tasks += len(tasks)
	for _, e := range tasks {
		into.taskComputeMs = append(into.taskComputeMs, float64(e.VT-e.Start-e.FetchWait)/1e6)
		if reduce[stageKey{e.Job, e.Stage}] {
			into.reduceFetchWait += e.FetchWait
			into.reduceTaskTime += e.VT - e.Start
		}
	}
	for k := range reduce {
		if med := median(taskTimes[k]); med > 0 {
			into.reduceSkew = append(into.reduceSkew, slices.Max(taskTimes[k])/med)
		}
	}
	for job, s := range jobStart {
		end, ok := jobEnd[job]
		if !ok {
			continue
		}
		into.driverGapMs = append(into.driverGapMs, float64(end-s-unionLen(stageSpans[job], s, end))/1e6)
	}
}

// unionLen is the length of the union of spans, clipped to [lo, hi].
func unionLen(spans [][2]vtime.Stamp, lo, hi vtime.Stamp) vtime.Stamp {
	s := append([][2]vtime.Stamp(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var total vtime.Stamp
	cur := lo
	for _, sp := range s {
		a, b := vtime.Max(sp[0], cur), sp[1]
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// backendLayers reports the per-backend layer metrics of one backend's
// traced repetitions, normalized per job unit where they are counts.
// The scheduling-delay tail is over the first tailReps repetitions only,
// so its rank does not depend on how many rounds the time allowed.
func backendLayers(traces []*repTrace, name string, tailReps int, m map[string]metric) {
	var units, msgs, nbytes int64
	var wire time.Duration
	var rx []int64
	var readVT []float64
	var es eventStats
	var tailDelays []float64
	var requests, blocks, chunks int64
	for k, t := range traces {
		units += int64(len(t.rec.rep.units))
		msgs += t.msgs
		nbytes += t.bytes
		wire += t.wireVT
		for k, n := range t.rx {
			if k >= len(rx) {
				rx = append(rx, 0)
			}
			rx[k] += n
		}
		if t.rec.rep.readVT > 0 {
			readVT = append(readVT, float64(t.rec.rep.readVT)/1e6)
		}
		requests += t.counters["shuffle.fetch.requests"]
		blocks += t.counters["shuffle.fetch.batched_blocks"]
		chunks += t.counters["shuffle.fetch.chunks"]
		extractEvents(t.events, &es)
		if k < tailReps {
			tailDelays = es.schedDelayMs
		}
	}
	per := func(x float64) float64 { return ratio(x, float64(units)) }
	var rxMax, rxSum int64
	for _, n := range rx {
		rxSum += n
		rxMax = max(rxMax, n)
	}
	m["fabric.msgs."+name] = metric{per(float64(msgs)), "count"}
	m["fabric.mb."+name] = metric{per(float64(nbytes) / (1 << 20)), "MB"}
	m["fabric.wire_vt_ms."+name] = metric{per(float64(wire) / 1e6), "ms"}
	m["fabric.rx_skew."+name] = metric{ratio(float64(rxMax), float64(rxSum)/float64(max(len(rx), 1))), "ratio"}
	m["shuffle.fetch.requests."+name] = metric{per(float64(requests)), "count"}
	m["shuffle.fetch.chunks."+name] = metric{per(float64(chunks)), "count"}
	m["shuffle.fetch.blocks_per_request."+name] = metric{ratio(float64(blocks), float64(requests)), "count"}
	m["shuffle.read_vt_ms."+name] = metric{median(readVT), "ms"}
	m["shuffle.fetch_wait_share."+name] = metric{ratio(float64(es.reduceFetchWait), float64(es.reduceTaskTime)), "ratio"}
	m["spark.tasks."+name] = metric{per(float64(es.tasks)), "count"}
	m["spark.driver_gap_vt_ms."+name] = metric{median(es.driverGapMs), "ms"}
	m["spark.task_compute_vt_ms."+name] = metric{median(es.taskComputeMs), "ms"}
	m["spark.reduce_task_skew."+name] = metric{median(es.reduceSkew), "ratio"}
	m["streaming.sched_delay_vt_ms."+name] = metric{median(es.schedDelayMs), "ms"}
	t, _ := tail(tailDelays)
	m["streaming.sched_delay_vt_ms_tail."+name] = metric{t, "ms"}
}

// sharedLayers reports the counters every transport moves alike (bytes,
// blocks checked, service traffic, planner decisions, collectives,
// streaming ingest), per job unit over all four backends' repetitions.
func sharedLayers(traces [][]*repTrace, m map[string]metric) {
	var units, reps float64
	sum := map[string]int64{}
	var ingested, backlog, gets, hits int64
	for _, ts := range traces {
		for _, t := range ts {
			gets += t.bufGets
			hits += t.bufHits
			units += float64(len(t.rec.rep.units))
			reps++
			for k, v := range t.counters {
				sum[k] += v
			}
			ingested += t.rec.rep.ingested
			backlog += t.rec.rep.backlog
		}
	}
	per := func(names ...string) float64 {
		var n int64
		for _, name := range names {
			n += sum[name]
		}
		return ratio(float64(n), units)
	}
	const mb = 1 << 20
	m["shuffle.fetch.retries"] = metric{per("shuffle.fetch.retries"), "count"}
	m["shuffle.bytes_remote_mb"] = metric{per("shuffle.fetch.bytes_remote") / mb, "MB"}
	m["shuffle.bytes_local_mb"] = metric{per("shuffle.fetch.bytes_local") / mb, "MB"}
	m["shuffle.integrity.checked"] = metric{per(shuffle.CounterIntegrityChecked), "count"}
	m["shuffleservice.pushed_mb"] = metric{per(shuffleservice.CounterPushedBytes) / mb, "MB"}
	m["shuffleservice.merged_mb"] = metric{per(shuffleservice.CounterMergedBytes) / mb, "MB"}
	m["shuffleservice.served_mb"] = metric{per(shuffleservice.CounterServedBytes) / mb, "MB"}
	m["spark.adaptive.splits"] = metric{per(spark.CounterAdaptiveSplits), "count"}
	m["spark.adaptive.coalesces"] = metric{per(spark.CounterAdaptiveCoalesces), "count"}
	m["collective.ops"] = metric{per(metrics.CollectiveBcastOps, metrics.CollectiveReduceOps, metrics.CollectiveAllreduceOps), "count"}
	m["collective.mb"] = metric{per(metrics.CollectiveBcastBytes, metrics.CollectiveReduceBytes, metrics.CollectiveAllreduceBytes) / mb, "MB"}
	m["collective.chunks"] = metric{per(metrics.CollectiveBcastChunks, metrics.CollectiveReduceChunks, metrics.CollectiveAllreduceChunks), "count"}
	m["streaming.events_ingested"] = metric{ratio(float64(ingested), reps), "count"}
	m["streaming.backlog"] = metric{ratio(float64(backlog), reps), "count"}
	m["bytebuf.pool_hit_ratio"] = metric{ratio(float64(hits), float64(gets)), "ratio"}
}
