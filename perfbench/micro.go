package main

import (
	"flag"
	"fmt"
	"testing"
	"time"

	"mpi4spark/internal/bytebuf"
	"mpi4spark/internal/fabric"
	"mpi4spark/internal/harness"
	"mpi4spark/internal/mpi"
	"mpi4spark/internal/spark"
	"mpi4spark/internal/vtime"
)

// Layer micro-drivers: testing.Benchmark over single public calls,
// reported as ns/op and allocs/op.

// microDriver is one layer call under testing.Benchmark. perOp divides
// ns/op when one op covers several items (pairs encoded).
type microDriver struct {
	name  string
	perOp int
	bench func(b *testing.B)
}

const encodePairsPerOp = 1000

// Results go to these sinks so the compiler cannot drop the measured calls.
var (
	sinkStamp vtime.Stamp
	sinkBytes []byte
)

var microDrivers = []microDriver{
	{"fabric.transfer_ns", 1, func(b *testing.B) {
		f := fabric.New(fabric.NewIBHDRModel())
		from, to := f.AddNode("a"), f.AddNode("b")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, sinkStamp = f.Transfer(from, to, fabric.MPIRendezvous, 1<<20, 0)
		}
	}},
	{"vtime.occupy_ns", 1, func(b *testing.B) {
		// A calendar at its interval bound, each claim landing after the
		// last busy span: every Occupy scans the full list.
		r := vtime.NewResource()
		var at vtime.Stamp
		claim := func() {
			_, sinkStamp = r.Occupy(at, time.Microsecond)
			at += vtime.Duration(2 * time.Microsecond)
		}
		for i := 0; i < 512; i++ {
			claim()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			claim()
		}
	}},
	{"bytebuf.get_release_ns", 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf := bytebuf.Get(4 << 10)
			buf.WriteUint64(uint64(i))
			buf.Release()
		}
	}},
	{"mpi.p2p_ns.1KB", 1, p2p(1 << 10)},
	{"mpi.p2p_ns.1MB", 1, p2p(1 << 20)},
	{"spark.encode_ns_per_pair", encodePairsPerOp, func(b *testing.B) {
		codec := spark.PairCodec[int64, []byte]{Key: spark.Int64Codec{}, Val: spark.BytesCodec{}}
		pairs := make([]spark.Pair[int64, []byte], encodePairsPerOp)
		val := make([]byte, 100)
		for i := range pairs {
			pairs[i] = spark.Pair[int64, []byte]{K: int64(i), V: val}
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkBytes = spark.EncodePairs(codec, pairs)
		}
	}},
}

// p2p sends size-byte messages from rank 0 to rank 1 of a two-rank MPI
// world, one matching Recv per Send.
func p2p(size int) func(b *testing.B) {
	return func(b *testing.B) {
		f := fabric.New(fabric.NewIBHDRModel())
		comm := mpi.NewWorld(f).InitWorld([]*fabric.Node{f.AddNode("n0"), f.AddNode("n1")})
		payload := make([]byte, size)
		done := make(chan struct{})
		go func() {
			h := comm.Handle(1)
			for i := 0; i < b.N; i++ {
				h.Recv(0, 1, 0)
			}
			close(done)
		}()
		h := comm.Handle(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Send(1, 1, payload, 0)
		}
		<-done
	}
}

// runMicro runs every micro-driver for about d each and adds
// <name> (ns) and <name>_allocs (allocs/op) to m.
func runMicro(d time.Duration, m map[string]metric) error {
	testing.Init()
	if err := flag.Set("test.benchtime", d.String()); err != nil {
		return err
	}
	for _, md := range microDrivers {
		r := testing.Benchmark(md.bench)
		if r.N == 0 {
			return fmt.Errorf("micro-driver %s did not run", md.name)
		}
		m[md.name] = metric{float64(r.T.Nanoseconds()) / float64(r.N) / float64(md.perOp), "ns"}
		m[md.name+"_allocs"] = metric{float64(r.MemAllocs) / float64(r.N), "count"}
	}
	return nil
}

// pingPong reports the Fig. 8 Netty ping-pong half round trips at 64 B
// and 4 MiB. Fig. 8 runs in deterministic virtual time, so two calls
// must agree exactly.
func pingPong(m map[string]metric) error {
	sizes := []int{64, 4 << 20}
	a, _, err := harness.RunFig8(sizes)
	if err != nil {
		return err
	}
	b, _, err := harness.RunFig8(sizes)
	if err != nil {
		return err
	}
	for i, p := range a {
		if p != b[i] {
			return fmt.Errorf("Fig. 8 ping-pong not reproducible at %d B: %+v != %+v", p.Size, p, b[i])
		}
		label := "64B"
		if p.Size == 4<<20 {
			label = "4MB"
		}
		m["netty.pingpong_vt_us.nio_"+label] = metric{float64(p.NIO.Nanoseconds()) / 1e3, "us"}
		m["netty.pingpong_vt_us.mpi_"+label] = metric{float64(p.MPI.Nanoseconds()) / 1e3, "us"}
	}
	return nil
}
