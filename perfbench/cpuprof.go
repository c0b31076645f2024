package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU attribution by layer. Each CPU profile sample goes to the
// innermost mpi4spark/internal/<pkg> frame on its stack, named by the
// package's leaf; GC worker stacks go to gc, the experiment drivers to
// workload, and everything else to other.

// layers lists every layer cpu_pct reports, in report order.
var layers = []string{
	"spark", "shuffle", "rpc", "shuffleservice", "storage", "fabric", "vtime",
	"netty", "mpi", "core", "ucr", "rdma", "streaming", "collective", "bytebuf",
	"obs", "workload", "gc", "other",
}

const internalPrefix = "mpi4spark/internal/"

// internalLeaf returns the package leaf of a function symbol inside
// mpi4spark/internal, e.g. "rpc" for "mpi4spark/internal/spark/rpc.(*Env).Ask".
func internalLeaf(fn string) (string, bool) {
	if !strings.HasPrefix(fn, internalPrefix) {
		return "", false
	}
	// The package path ends at the first '.' after its last '/'; cut
	// generic brackets and receivers first, since they may hold paths.
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i]
	}
	pkg := fn
	if slash := strings.LastIndexByte(fn, '/'); slash >= 0 {
		if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
			pkg = fn[:slash+dot]
		}
	}
	return pkg[strings.LastIndexByte(pkg, '/')+1:], true
}

// gcRoots are the runtime's background collector entry points.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// layerOf assigns a stack (innermost frame first) to a layer.
func layerOf(stack []string) string {
	for _, fn := range stack {
		for _, root := range gcRoots {
			if fn == root {
				return "gc"
			}
		}
	}
	for _, fn := range stack {
		leaf, ok := internalLeaf(fn)
		if !ok {
			continue
		}
		switch leaf {
		case "harness", "ohb", "hibench":
			return "workload"
		}
		for _, l := range layers {
			if l == leaf {
				return leaf
			}
		}
		return "other"
	}
	return "other"
}

// cpuByLayer decodes a gzipped profile.proto CPU profile and sums its
// sample counts per layer.
func cpuByLayer(prof []byte, into map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				stack = append(stack, p.str(p.funcNames[fid]))
			}
		}
		into[layerOf(stack)] += s.count
	}
	return nil
}

// profile holds the parts of a profile.proto message attribution needs.
type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames map[uint64]int64    // function id -> string table index
	strings   []string
}

type profSample struct {
	locs  []uint64 // location ids, innermost first
	count int64    // first sample value (samples taken)
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto (github.com/google/pprof/proto).
const (
	profSampleField   = 2
	profLocationField = 4
	profFunctionField = 5
	profStringField   = 6
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(num int, _ uint64, data []byte) error {
		switch num {
		case profSampleField:
			var s profSample
			var values []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					s.locs = appendRepeated(s.locs, v, data)
				case 2:
					values = appendRepeated(values, v, data)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case profLocationField:
			var id uint64
			var funcs []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; the last entry is the caller the others were inlined into
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = funcs
		case profFunctionField:
			var id uint64
			var name int64
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcNames[id] = name
		case profStringField:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// appendRepeated appends a repeated integer field's value: one varint
// when unpacked, a run of varints when packed.
func appendRepeated(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks a protobuf message, passing each field's number and
// either its varint value or its length-delimited bytes (nil otherwise).
// Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			if data == nil {
				data = []byte{}
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}
