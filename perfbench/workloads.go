package main

import (
	"fmt"
	"math"
	"time"

	"mpi4spark/internal/harness"
	"mpi4spark/internal/hibench"
	"mpi4spark/internal/metrics"
	"mpi4spark/internal/ohb"
	"mpi4spark/internal/spark"
	"mpi4spark/internal/streaming"
	"mpi4spark/internal/vtime"
)

// backend pairs a transport with the suffix its metrics carry. The order
// is the paper's: IPoIB, RDMA-Spark, MPI4Spark-Basic, MPI4Spark-Optimized.
type backend struct {
	b    spark.Backend
	name string
}

var backends = []backend{
	{spark.BackendVanilla, "ipoib"},
	{spark.BackendRDMA, "rdma"},
	{spark.BackendMPIBasic, "mpi_basic"},
	{spark.BackendMPIOpt, "mpi_opt"},
}

// size scales every workload; full is the measured size, short the
// minimal one the tests run.
type size struct {
	ohbBytesPerWorker  int64 // ohb-groupby input per worker
	skewBytesPerWorker int64 // skew-service input per worker
	streamBatches      int   // micro-batches per stream-window repetition
	kmeansPerPart      int   // points per KMeans partition
	kmeansIterations   int
	streamRate         float64 // offered events/sec, both receivers together
	jobUnits           int     // job units per backend for virtual time, one-job workloads
	streamUnits        int     // job units per backend for virtual time, stream-window
	tracedRounds       int     // rounds of the traced run
	microBenchDuration time.Duration
}

var (
	fullSize = size{
		ohbBytesPerWorker:  8 << 20,
		skewBytesPerWorker: 4 << 20,
		streamBatches:      50,
		kmeansPerPart:      16000,
		kmeansIterations:   5,
		streamRate:         16_000_000,
		jobUnits:           40,
		streamUnits:        200,
		tracedRounds:       2,
		microBenchDuration: 200 * time.Millisecond,
	}
	shortSize = size{
		ohbBytesPerWorker:  256 << 10,
		skewBytesPerWorker: 256 << 10,
		streamBatches:      8,
		kmeansPerPart:      200,
		kmeansIterations:   2,
		streamRate:         1_000_000,
		jobUnits:           1,
		streamUnits:        4,
		tracedRounds:       1,
		microBenchDuration: 5 * time.Millisecond,
	}
)

// rep is one repetition of a workload on one backend.
type rep struct {
	// units holds the virtual time of each job unit: an OHB or KMeans
	// job, or one micro-batch that emits a window, from its interval
	// boundary to its last output (SchedDelay + Proc).
	units []vtime.Stamp
	// sig is the output signature; it must be identical across backends.
	sig string
	// bad counts job units that failed a workload-internal check.
	bad int
	// readVT is the shuffle-read stage's virtual time (OHB workloads).
	readVT vtime.Stamp
	// Streaming ingest accounting (stream-window only).
	offered, ingested, backlog int64
}

// workload is one benchmark input set (README.md says why each exists).
// spec gives the cluster for a backend; run executes one repetition on a
// freshly built cluster.
type workload struct {
	name string
	spec func(b spark.Backend) harness.ClusterSpec
	run  func(cl *harness.Cluster, seed int64, sz size) (*rep, error)
}

var workloads = []workload{
	{
		name: "ohb-groupby",
		spec: func(b spark.Backend) harness.ClusterSpec {
			return harness.ClusterSpec{System: harness.Frontera, Workers: 4, SlotsPerWorker: 2, Backend: b}
		},
		run: runGroupBy,
	},
	{
		name: "stream-window",
		spec: func(b spark.Backend) harness.ClusterSpec {
			return harness.ClusterSpec{System: harness.Frontera, Workers: 4, SlotsPerWorker: 2, Backend: b}
		},
		run: runStreamWindow,
	},
	{
		name: "skew-service",
		spec: func(b spark.Backend) harness.ClusterSpec {
			return harness.ClusterSpec{
				System: harness.Frontera, Workers: 4, SlotsPerWorker: 4, Backend: b,
				CPU: spark.DefaultCPUModel(), ShuffleService: true, Adaptive: true,
			}
		},
		run: runSkew,
	},
	{
		name: "ml-kmeans",
		spec: func(b spark.Backend) harness.ClusterSpec {
			return harness.ClusterSpec{System: harness.Frontera, Workers: 4, SlotsPerWorker: 2, Backend: b}
		},
		run: runKMeans,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// ohbConfig sizes an OHB run the way the harness does: one mapper and
// one reducer per slot, 100-byte values, a key range of a quarter of the
// pairs.
func ohbConfig(workers, slots int, bytesPerWorker int64, seed int64) ohb.Config {
	const valueBytes = 100
	mappers := workers * slots
	perMapper := int(bytesPerWorker * int64(workers) / int64(mappers) / (valueBytes + 8))
	return ohb.Config{
		Mappers:        mappers,
		Reducers:       mappers,
		PairsPerMapper: perMapper,
		ValueBytes:     valueBytes,
		KeyRange:       int64(mappers*perMapper)/4 + 1,
		Seed:           seed,
	}
}

func runGroupBy(cl *harness.Cluster, seed int64, sz size) (*rep, error) {
	res, err := ohb.RunGroupByTest(cl.Ctx, ohbConfig(4, 2, sz.ohbBytesPerWorker, seed))
	if err != nil {
		return nil, err
	}
	return &rep{
		units:  []vtime.Stamp{res.Total},
		sig:    fmt.Sprintf("groups=%d", res.Output),
		readVT: res.ShuffleReadTime(),
	}, nil
}

func runSkew(cl *harness.Cluster, seed int64, sz size) (*rep, error) {
	res, err := ohb.RunSkewedGroupBy(cl.Ctx, ohb.SkewConfig{Config: ohbConfig(4, 4, sz.skewBytesPerWorker, seed)})
	if err != nil {
		return nil, err
	}
	return &rep{
		units:  []vtime.Stamp{res.Total},
		sig:    fmt.Sprintf("checksum=%x", uint64(res.Output)),
		readVT: res.ShuffleReadTime(),
	}, nil
}

func runKMeans(cl *harness.Cluster, seed int64, sz size) (*rep, error) {
	res, err := hibench.RunKMeans(cl.Ctx, hibench.KMeansConfig{
		Parts: 8, PerPart: sz.kmeansPerPart, Dim: 16, K: 8, Iterations: sz.kmeansIterations, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return &rep{
		units: []vtime.Stamp{res.Total},
		sig:   fmt.Sprintf("cost=%x", math.Float64bits(res.Metric)),
	}, nil
}

// Stream-window shape: two receivers over a 512-key space, 16-byte
// events, 8 ms batches, an incremental windowed count over 4 intervals
// sliding by 2, backpressure off so the offered rate is open-loop.
//
// Only every streamSlide-th batch emits a window and runs a job; the
// batches between only ingest and have no output to time, so they are
// checked but are not job units.
const (
	streamInterval  = 8 * time.Millisecond
	streamWindow    = 4
	streamSlide     = 2
	streamReceivers = 2
	streamKeys      = 512
)

// mix is splitmix64's finalizer: it turns (seed, sequence number) into
// a well-spread key.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func runStreamWindow(cl *harness.Cluster, seed int64, sz size) (*rep, error) {
	sc, err := streaming.NewContext(cl.Ctx, streaming.Config{BatchInterval: streamInterval})
	if err != nil {
		return nil, err
	}
	conf := spark.ShuffleConf[int64, int64]{
		Codec: spark.PairCodec[int64, int64]{Key: spark.Int64Codec{}, Val: spark.Int64Codec{}},
		Ops:   spark.Int64Key{},
		Parts: cl.Ctx.DefaultParallelism(),
	}
	var handles []streaming.ReceiverHandle
	var ins []*streaming.DStream[spark.Pair[int64, int64]]
	for i := 0; i < streamReceivers; i++ {
		base := uint64(seed)<<32 ^ uint64(i)
		in, h, err := streaming.Receive(sc, streaming.ReceiverConfig[spark.Pair[int64, int64]]{
			Name:       fmt.Sprintf("gen-%d", i),
			Rate:       sz.streamRate / streamReceivers,
			EventBytes: 16,
			Gen: func(seq int64) spark.Pair[int64, int64] {
				return spark.Pair[int64, int64]{K: int64(mix(base+uint64(seq)<<1) % streamKeys), V: 1}
			},
		})
		if err != nil {
			return nil, err
		}
		handles = append(handles, h)
		ins = append(ins, in)
	}
	counts, err := streaming.ReduceByKeyAndWindow(streaming.Union(ins[0], ins[1]), conf,
		func(a, b int64) int64 { return a + b },
		func(a, b int64) int64 { return a - b },
		streamWindow*streamInterval, streamSlide*streamInterval,
		func(_, v int64) bool { return v != 0 })
	if err != nil {
		return nil, err
	}
	var sig uint64
	var pairs int
	emitted := map[int]bool{}
	streaming.Foreach(counts, func(batch int, items []spark.Pair[int64, int64]) error {
		emitted[batch] = items != nil
		for _, p := range items {
			sig ^= mix(uint64(batch)<<40 ^ uint64(p.K)<<20 ^ uint64(p.V))
		}
		pairs += len(items)
		return nil
	})

	snap := metrics.Snapshot()
	if err := sc.Run(sz.streamBatches); err != nil {
		return nil, err
	}
	r := &rep{
		offered:  snap.DeltaValue(streaming.CounterEventsOffered),
		ingested: snap.DeltaValue(streaming.CounterEventsIngested),
		sig:      fmt.Sprintf("window=%x/%d", sig, pairs),
	}
	for _, h := range handles {
		r.backlog += h.Backlog()
	}
	var admitted int64
	stats := sc.Stats()
	for _, b := range stats {
		if emitted[b.Batch] {
			r.units = append(r.units, b.SchedDelay+b.Proc())
		}
		admitted += b.Events
	}
	// The rate is below every backend's sustained rate, so every offered
	// event must be ingested in its own interval.
	if r.offered != r.ingested+r.backlog || r.backlog != 0 || admitted != r.ingested ||
		len(stats) != sz.streamBatches || len(r.units) != sz.streamBatches/streamSlide {
		r.bad = sz.streamBatches / streamSlide
	}
	return r, nil
}
