package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mpi4spark/internal/obs"
	"mpi4spark/internal/vtime"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so the helpers must sort
	}
	return xs
}

func TestTailRule(t *testing.T) {
	if _, ok := tail(seq(minTailSamples - 1)); ok {
		t.Fatalf("tail reported below %d samples", minTailSamples)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{20, 10},  // 10 samples beyond the 10th smallest
		{21, 11},  // p52
		{100, 90}, // p90
		{1000, 990},
	} {
		got, ok := tail(seq(c.n))
		if !ok || got != c.want {
			t.Errorf("tail of 1..%d = %v (ok %v), want %v", c.n, got, ok, c.want)
		}
	}
	if m := median(seq(5)); m != 3 {
		t.Errorf("median of 1..5 = %v", m)
	}
	if m := median(seq(4)); m != 2.5 {
		t.Errorf("median of 1..4 = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median of nothing = %v", m)
	}
	// Below the sample floor the tail falls back to the median.
	if got := tailOr(seq(5)); got != 3 {
		t.Errorf("tailOr of 5 samples = %v, want the median 3", got)
	}
	if got := tailOr(seq(100)); got != 90 {
		t.Errorf("tailOr of 100 samples = %v, want 90", got)
	}
}

// TestTailRankIsFixed checks that at full size every workload takes its
// virtual-time metrics over enough job units for the tail to lie at or
// above p75, and over whole repetitions.
func TestTailRankIsFixed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		n := w.vtUnits(fullSize)
		if n < minTailSamples {
			t.Errorf("%s: %d job units, below the tail floor %d", w.name, n, minTailSamples)
			continue
		}
		if rank := n - tailBeyond; 4*rank < 3*n {
			t.Errorf("%s: the tail is the %dth of %d job units, below p75", w.name, rank, n)
		}
		if n%w.unitsPerRep(fullSize) != 0 {
			t.Errorf("%s: %d job units is not a whole number of repetitions of %d", w.name, n, w.unitsPerRep(fullSize))
		}
	}
}

func TestTallyVotesOnOutputs(t *testing.T) {
	w, err := findWorkload("ohb-groupby")
	if err != nil {
		t.Fatal(err)
	}
	round := func(sigs ...string) []repRecord {
		recs := make([]repRecord, len(sigs))
		for i, s := range sigs {
			if s == "" {
				recs[i].err = errors.New("boom")
			} else {
				recs[i].rep = &rep{sig: s}
			}
		}
		return recs
	}
	logf := func(string, ...any) {}
	for _, c := range []struct {
		recs   []repRecord
		failed int
	}{
		{round("a", "a", "a", "a"), 0},
		{round("a", "a", "b", "a"), 1}, // the odd one out fails
		{round("a", "a", "b", "b"), 4}, // no majority: all fail
		{round("a", "", "a", "a"), 1},  // an error fails its backend
	} {
		out := &outcome{}
		tally(w, fullSize, 0, c.recs, out, logf)
		if out.Attempted != 4 || out.Failed != c.failed {
			t.Errorf("tally: %d/%d failed, want %d/4", out.Failed, out.Attempted, c.failed)
		}
	}
	recs := round("a", "a", "a", "a")
	recs[2].rep.bad = 1
	out := &outcome{}
	tally(w, fullSize, 0, recs, out, logf)
	if out.Failed != 1 {
		t.Errorf("a repetition's own failed check: %d failed, want 1", out.Failed)
	}
}

func TestExtractEvents(t *testing.T) {
	ms := func(x float64) vtime.Stamp { return vtime.Stamp(x * 1e6) }
	events := []obs.Event{
		{Type: obs.EvJobStart, Job: 0, VT: ms(0)},
		{Type: obs.EvStageSubmitted, Job: 0, Stage: 1, VT: ms(0)},
		{Type: obs.EvTaskEnd, Job: 0, Stage: 1, Partition: 0, Start: ms(0), VT: ms(4)},
		{Type: obs.EvTaskEnd, Job: 0, Stage: 1, Partition: 1, Start: ms(0), VT: ms(10)},
		{Type: obs.EvStageCompleted, Job: 0, Stage: 1, VT: ms(10)},
		// 2 ms of driver time between the stages.
		{Type: obs.EvStageSubmitted, Job: 0, Stage: 2, VT: ms(12)},
		{Type: obs.EvTaskEnd, Job: 0, Stage: 2, Partition: 0, Start: ms(12), VT: ms(14), FetchWait: ms(1), BytesRemote: 100},
		{Type: obs.EvTaskEnd, Job: 0, Stage: 2, Partition: 1, Start: ms(12), VT: ms(16), FetchWait: ms(2), BytesLocal: 50},
		{Type: obs.EvTaskEnd, Job: 0, Stage: 2, Partition: 2, Start: ms(12), VT: ms(24), FetchWait: ms(3), BytesRemote: 10},
		{Type: obs.EvStageCompleted, Job: 0, Stage: 2, VT: ms(24)},
		{Type: obs.EvJobEnd, Job: 0, VT: ms(25)},
		{Type: obs.EvBatchCompleted, Batch: 1, SchedDelay: ms(0.5), Start: ms(1), VT: ms(25)},
		{Type: obs.EvBatchCompleted, Batch: 2, SchedDelay: ms(1.5), Start: ms(26), VT: ms(30)},
	}
	var es eventStats
	extractEvents(events, &es)
	if es.tasks != 5 {
		t.Errorf("tasks = %d, want 5", es.tasks)
	}
	// Only stage 2 read shuffle bytes: waits 1+2+3 over task time 2+4+12.
	if got := ratio(float64(es.reduceFetchWait), float64(es.reduceTaskTime)); got != 6.0/18 {
		t.Errorf("fetch wait share = %v, want %v", got, 6.0/18)
	}
	// Task compute: 4, 10, 1, 2, 9 ms.
	if got := median(es.taskComputeMs); got != 4 {
		t.Errorf("median task compute = %v ms, want 4", got)
	}
	// Reduce stage task times 2, 4, 12: max over median is 3.
	if len(es.reduceSkew) != 1 || es.reduceSkew[0] != 3 {
		t.Errorf("reduce skew = %v, want [3]", es.reduceSkew)
	}
	// Job 25 ms, stages cover 10 + 12: 3 ms of driver gap.
	if len(es.driverGapMs) != 1 || es.driverGapMs[0] != 3 {
		t.Errorf("driver gap = %v, want [3]", es.driverGapMs)
	}
	if len(es.schedDelayMs) != 2 || median(es.schedDelayMs) != 1 {
		t.Errorf("sched delays = %v, want median 1", es.schedDelayMs)
	}
}

func TestUnionLen(t *testing.T) {
	spans := [][2]vtime.Stamp{{5, 10}, {0, 3}, {8, 12}, {20, 40}}
	if got := unionLen(spans, 0, 30); got != 3+7+10 {
		t.Errorf("union = %d, want 20", got)
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "mpi4spark/internal/spark/rpc.(*Env).Ask", "mpi4spark/internal/spark.runJob"}, "rpc"},
		{[]string{"mpi4spark/internal/spark/shuffle.(*Manager).Fetch.func1"}, "shuffle"},
		{[]string{"mpi4spark/internal/spark/shuffleservice.(*Service).merge"}, "shuffleservice"},
		{[]string{"runtime.mapassign_fast64", "mpi4spark/internal/spark.partitionWrite[go.shape.int64,go.shape.struct { mpi4spark/internal/vtime.x int }]"}, "spark"},
		{[]string{"mpi4spark/internal/fabric.(*Fabric).Transfer"}, "fabric"},
		{[]string{"mpi4spark/internal/vtime.(*Resource).Occupy", "mpi4spark/internal/fabric.(*Fabric).Transfer"}, "vtime"},
		{[]string{"mpi4spark/internal/ohb.generate.func1"}, "workload"},
		{[]string{"mpi4spark/internal/hibench.RunKMeans"}, "workload"},
		{[]string{"mpi4spark/internal/harness.BuildCluster"}, "workload"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"mpi4spark/internal/faults.(*Plane).TransferDelay"}, "other"},
		{[]string{"runtime.futex", "runtime.mcall"}, "other"},
		{nil, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// Minimal protobuf encoding, enough to build a profile.proto by hand.
func pbVarint(b []byte, num int, v uint64) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func pbBytes(b []byte, num int, data []byte) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

func TestCPUByLayerDecodesProfile(t *testing.T) {
	var p []byte
	for _, s := range []string{"", "mpi4spark/internal/spark/rpc.(*Env).Ask", "runtime.gcBgMarkWorker", "runtime.memmove"} {
		p = pbBytes(p, profStringField, []byte(s))
	}
	for id := uint64(1); id <= 3; id++ {
		fn := pbVarint(pbVarint(nil, 1, id), 2, id)
		p = pbBytes(p, profFunctionField, fn)
	}
	// Location 1 inlines memmove (innermost) into Env.Ask; location 2 is
	// the GC worker.
	loc1 := pbVarint(nil, 1, 1)
	loc1 = pbBytes(loc1, 4, pbVarint(nil, 1, 3))
	loc1 = pbBytes(loc1, 4, pbVarint(nil, 1, 1))
	loc2 := pbBytes(pbVarint(nil, 1, 2), 4, pbVarint(nil, 1, 2))
	p = pbBytes(p, profLocationField, loc1)
	p = pbBytes(p, profLocationField, loc2)
	// One sample with packed fields, one unpacked.
	s1 := pbBytes(nil, 1, binary.AppendUvarint(nil, 1))
	s1 = pbBytes(s1, 2, binary.AppendUvarint(binary.AppendUvarint(nil, 3), 30_000_000))
	s2 := pbVarint(pbVarint(nil, 1, 2), 2, 2)
	p = pbBytes(p, profSampleField, s1)
	p = pbBytes(p, profSampleField, s2)

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()
	got := map[string]int64{}
	if err := cpuByLayer(gz.Bytes(), got); err != nil {
		t.Fatal(err)
	}
	if got["rpc"] != 3 || got["gc"] != 2 || len(got) != 2 {
		t.Errorf("layers = %v, want rpc:3 gc:2", got)
	}
	if err := cpuByLayer(gz.Bytes()[:len(gz.Bytes())/2], got); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func checkMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("reported %d metrics, BENCHMARK.json lists %d", len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("metric %s not reported", m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("metric %s in %s, BENCHMARK.json says %s", m.Name, g.Unit, m.Unit)
		}
	}
}

// TestShortRunsEveryWorkload runs every workload at minimal size, both
// untraced and traced, and checks the outputs, the reconciliations and
// that exactly the metrics BENCHMARK.json lists are reported.
func TestShortRunsEveryWorkload(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	logf := func(format string, args ...any) { t.Logf(format, args...) }
	dir := t.TempDir()
	for _, ws := range spec.Workloads {
		w, err := findWorkload(ws.Name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(w.name, func(t *testing.T) {
			out := measure(w, 7, 0, shortSize, logf)
			if !out.Correct || out.Attempted == 0 {
				t.Fatalf("untraced run: correct %v, %d/%d failed", out.Correct, out.Failed, out.Attempted)
			}
			checkMetrics(t, out.Metrics, spec.EndToEnd)

			out, err := traceRun(w, 7, 0, shortSize, dir, logf)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct {
				t.Fatalf("traced run: %d/%d failed", out.Failed, out.Attempted)
			}
			checkMetrics(t, out.Metrics, spec.PerLayer)

			b, err := os.ReadFile(filepath.Join(dir, "trace-"+w.name+"-seed7.json"))
			if err != nil {
				t.Fatal(err)
			}
			var tr struct {
				TraceEvents []span `json:"traceEvents"`
			}
			if err := json.Unmarshal(b, &tr); err != nil {
				t.Fatalf("trace is not JSON: %v", err)
			}
			cats := map[string]int{}
			for _, s := range tr.TraceEvents {
				cats[s.Cat]++
			}
			for _, c := range []string{"wall", "job", "stage", "task"} {
				if cats[c] == 0 {
					t.Errorf("trace has no %s spans (%v)", c, cats)
				}
			}
		})
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	if code := run("no-such-workload", 1, time.Second, false, t.TempDir()); code == 0 {
		t.Error("unknown workload exited 0")
	}
}
