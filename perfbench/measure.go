package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"

	"mpi4spark/internal/harness"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is a run's result line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// cost is the simulator's own cost over a span: wall, CPU, heap bytes
// and objects allocated, and GC cycles.
type cost struct {
	wall, cpu          time.Duration
	alloc, mallocs, gc uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set so far (Linux reports
// ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// timed runs f and returns the cost it incurred.
func timed(f func()) cost {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, w0 := cpuTime(), time.Now()
	f()
	c := cost{wall: time.Since(w0), cpu: cpuTime() - c0}
	runtime.ReadMemStats(&m1)
	c.alloc = m1.TotalAlloc - m0.TotalAlloc
	c.mallocs = m1.Mallocs - m0.Mallocs
	c.gc = uint64(m1.NumGC - m0.NumGC)
	return c
}

// Host speed. On a shared machine the same work can take 30% more wall
// and CPU time from one quarter of an hour to the next, and a whole run
// falls inside one such period, so medians over rounds do not remove it.
// Before every round the run therefore times a fixed kernel that uses no
// repository code, and scales wall_s and cpu_s by calRef over the
// kernel's median: they read as seconds on a host where the kernel takes
// calRef, and a slower simulator still reads higher.
const calRef = 15 * time.Millisecond

// calSink keeps the kernel's result live.
var calSink int64

// calibrate runs the kernel on a freshly collected heap and returns its
// cost: hashing into a map, sorting, and small allocations, the kind of
// work the simulator does most.
func calibrate() cost {
	runtime.GC()
	return timed(func() {
		m := make(map[int64]int64)
		xs := make([]int64, 0, 1<<16)
		x := uint64(1)
		for i := 0; i < 1<<16; i++ {
			x = mix(x)
			m[int64(x%(1<<15))] += int64(i)
			xs = append(xs, int64(x>>1))
		}
		sort.Slice(xs, func(a, b int) bool { return xs[a] < xs[b] })
		var bufs [][]byte
		for i := 0; i < 2000; i++ {
			bufs = append(bufs, make([]byte, 512))
		}
		calSink += int64(len(m)) + xs[0] + int64(len(bufs))
	})
}

// roundSeed derives the input seed of one round from the run's seed, so
// each round runs fresh inputs that are the same on all four backends.
func roundSeed(seed int64, round int) int64 {
	return int64(mix(uint64(seed)*1_000_003+uint64(round)) >> 2)
}

// repRecord is one measured repetition on one backend.
type repRecord struct {
	backend         int
	rep             *rep
	setup, teardown time.Duration
	cost            cost
	err             error
}

// runRound builds a fresh cluster per backend, one backend at a time,
// and runs one repetition of w on each, with the same input seed.
// observe, when non-nil, is called with each cluster before the
// repetition starts and returns a function called once it has ended.
func runRound(w *workload, seed int64, sz size, observe func(be int, cl *harness.Cluster) func()) []repRecord {
	recs := make([]repRecord, len(backends))
	for i, be := range backends {
		runtime.GC()
		rec := repRecord{backend: i}
		t0 := time.Now()
		cl, err := harness.BuildCluster(w.spec(be.b))
		rec.setup = time.Since(t0)
		if err != nil {
			rec.err = err
			recs[i] = rec
			continue
		}
		var done func()
		if observe != nil {
			done = observe(i, cl)
		}
		rec.cost = timed(func() { rec.rep, rec.err = w.run(cl, seed, sz) })
		if done != nil {
			done()
		}
		t1 := time.Now()
		cl.Close()
		rec.teardown = time.Since(t1)
		recs[i] = rec
	}
	return recs
}

// tally checks a round's outputs and adds its job units to out. Every
// backend must produce the same output signature, the one at least three
// of the four agree on; a backend that errs or differs fails all its job
// units, and one that agrees fails those its own checks rejected.
func tally(w *workload, sz size, r int, recs []repRecord, out *outcome, logf func(string, ...any)) {
	votes := map[string]int{}
	for _, rec := range recs {
		if rec.err == nil {
			votes[rec.rep.sig]++
		}
	}
	ref := ""
	for sig, n := range votes {
		if 2*n > len(recs) {
			ref = sig
		}
	}
	for i, rec := range recs {
		units, failed := w.unitsPerRep(sz), 0
		switch {
		case rec.err != nil:
			failed = units
			logf("round %d %s: %v", r, backends[i].name, rec.err)
		case rec.rep.sig != ref:
			failed = units
			logf("round %d %s: output %s differs from the other backends", r, backends[i].name, rec.rep.sig)
		case rec.rep.bad > 0:
			failed = rec.rep.bad
			logf("round %d %s: %d of %d job units failed their checks", r, backends[i].name, failed, units)
		}
		out.Attempted += units
		out.Failed += failed
	}
}

// measure is the untraced run: rounds of all four backends until the
// time is up and the workload's vtUnits job units per backend are in.
// It reports every end-to-end metric.
func measure(w *workload, seed int64, seconds time.Duration, sz size, logf func(string, ...any)) *outcome {
	out := &outcome{Metrics: map[string]metric{}}
	units := make([][]float64, len(backends))
	setups := make([][]float64, len(backends))
	var walls, cpus, allocs, calWalls, calCPUs []float64

	need := w.vtUnits(sz)
	minRounds := (need + w.unitsPerRep(sz) - 1) / w.unitsPerRep(sz)
	start := time.Now()
	for r := 0; r < minRounds || time.Since(start) < seconds; r++ {
		cal := calibrate()
		calWalls = append(calWalls, cal.wall.Seconds())
		calCPUs = append(calCPUs, cal.cpu.Seconds())
		recs := runRound(w, roundSeed(seed, r), sz, nil)
		tally(w, sz, r, recs, out, logf)
		var c cost
		for i, rec := range recs {
			setups[i] = append(setups[i], rec.setup.Seconds())
			if rec.err != nil {
				continue
			}
			c.wall += rec.cost.wall
			c.cpu += rec.cost.cpu
			c.alloc += rec.cost.alloc
			units[i] = append(units[i], ms(rec.rep.units)...)
		}
		walls = append(walls, c.wall.Seconds())
		cpus = append(cpus, c.cpu.Seconds())
		allocs = append(allocs, float64(c.alloc)/(1<<20))
	}

	var setup float64
	for i, be := range backends {
		// Only the first need units count, so the tail is the same
		// percentile in every run, however many rounds the host fit in.
		first := units[i][:min(need, len(units[i]))]
		out.Metrics["job_vt_ms."+be.name] = metric{median(first), "ms"}
		out.Metrics["job_vt_ms_tail."+be.name] = metric{tailOr(first), "ms"}
		setup += median(setups[i])
	}
	out.Metrics["wall_s"] = metric{median(walls) * calRef.Seconds() / median(calWalls), "s"}
	out.Metrics["cpu_s"] = metric{median(cpus) * calRef.Seconds() / median(calCPUs), "s"}
	out.Metrics["alloc_mb"] = metric{median(allocs), "MB"}
	out.Metrics["max_rss_mb"] = metric{maxRSSMB(), "MB"}
	out.Metrics["setup_s"] = metric{setup, "s"}
	out.Correct = out.Failed == 0
	logf("%s: %d rounds in %.1fs, %d/%d job units failed", w.name, len(walls), time.Since(start).Seconds(), out.Failed, out.Attempted)
	logf("unscaled: wall %.4fs, cpu %.4fs per round; kernel wall %.2fms, cpu %.2fms",
		median(walls), median(cpus), 1e3*median(calWalls), 1e3*median(calCPUs))
	return out
}

// tailOr is the tail of a backend's job units, or their median when
// there are too few for one (only in the tests' short runs).
func tailOr(xs []float64) float64 {
	if t, ok := tail(xs); ok {
		return t
	}
	return median(xs)
}

func (w *workload) unitsPerRep(sz size) int {
	if w.name == "stream-window" {
		return sz.streamBatches / streamSlide
	}
	return 1
}

// vtUnits is how many job units per backend the virtual-time metrics
// are taken over: the run's first ones. The count is fixed, so the tail
// rule picks the same rank in every run.
func (w *workload) vtUnits(sz size) int {
	if w.name == "stream-window" {
		return sz.streamUnits
	}
	return sz.jobUnits
}
