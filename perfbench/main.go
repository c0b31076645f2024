// Command perfbench is the repository's benchmark. It runs one named
// workload on all four transports (IPoIB, RDMA-Spark, MPI4Spark-Basic,
// MPI4Spark-Optimized), one after another in a single process, checks
// every output, and prints one JSON result line:
//
//	perfbench -workload ohb-groupby -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the line holds the end-to-end metrics; with -trace 1 a
// separately traced run gives the per-layer metrics and writes a Chrome
// trace under -out. See README.md for the metrics and workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 20, "measured seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer run")
		outDir  = flag.String("out", ".bench_build", "directory for profiles and trace files")
	)
	flag.Parse()
	os.Exit(run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *outDir))
}

func run(name string, seed int64, seconds time.Duration, traced bool, outDir string) int {
	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }
	w, err := findWorkload(name)
	if err != nil {
		logf("%v", err)
		return 2
	}
	// One process on at most two cores: the backends run one after
	// another and never concurrently, since the counters are global.
	if runtime.NumCPU() < 2 {
		runtime.GOMAXPROCS(runtime.NumCPU())
	} else {
		runtime.GOMAXPROCS(2)
	}
	var out *outcome
	if traced {
		out, err = traceRun(w, seed, seconds, fullSize, outDir, logf)
		if err != nil {
			logf("%v", err)
			return 1
		}
	} else {
		out = measure(w, seed, seconds, fullSize, logf)
	}
	line, err := json.Marshal(out)
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}
