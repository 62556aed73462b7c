package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile, as runtime/pprof writes it, is a gzipped protocol
// buffer (profile.proto). Only four of its tables matter here — samples,
// locations, functions, strings — so this file decodes just those rather
// than pull in a module the repository does not have.

// sample is one profile sample: a call stack, leaf first, and how many
// times the profiler saw it.
type sample struct {
	stack []string // function names, innermost first
	count int64
}

var errProfile = errors.New("malformed profile")

// pbFields calls fn for every field of one protocol-buffer message: v
// holds a varint or fixed-width value, data a length-delimited one.
func pbFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errProfile
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			if v, n = pbVarint(b); n == 0 {
				return errProfile
			}
			b = b[n:]
		case 1, 5:
			width := 8
			if key&7 == 5 {
				width = 4
			}
			if len(b) < width {
				return errProfile
			}
			for i := width - 1; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[width:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errProfile
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return errProfile
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbRepeated appends a repeated integer field, packed or not.
func pbRepeated(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := pbVarint(data)
		if n == 0 {
			return nil, errProfile
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}

// parseProfile decodes a gzipped pprof CPU profile into its samples.
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile is not gzip: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading profile: %w", err)
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		raws   []rawSample
		locFns = map[uint64][]uint64{} // location id → function ids, innermost (inlined) first
		fnName = map[uint64]uint64{}   // function id → string-table index
		strtab []string
	)
	err = pbFields(raw, func(num int, _ uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := pbFields(data, func(num int, v uint64, d []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = pbRepeated(s.locs, v, d)
				case 2:
					s.vals, err = pbRepeated(s.vals, v, d)
				}
				return err
			})
			raws = append(raws, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(data, func(num int, v uint64, d []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return pbFields(d, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := pbFields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strtab = append(strtab, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]sample, 0, len(raws))
	for _, rs := range raws {
		if len(rs.vals) == 0 {
			return nil, errProfile
		}
		s := sample{count: int64(rs.vals[0])} // value 0 of a CPU profile is samples/count
		for _, loc := range rs.locs {
			for _, fn := range locFns[loc] {
				idx := fnName[fn]
				if idx >= uint64(len(strtab)) {
					return nil, errProfile
				}
				s.stack = append(s.stack, strtab[idx])
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// buckets are the host-CPU attribution buckets, in report order: the
// layers of the stack, the Go runtime split in two, and the rest.
var buckets = []string{"sim", "myrinet", "gm", "sockets", "substrate", "tmk", "apps", "msg",
	"runtime_sched", "runtime_mem", "other"}

// layerOf maps every package under repro/internal to its bucket. The
// empty string marks helper packages that have no layer of their own
// (observers, statistics, benchmark drivers): a sample there belongs to
// whichever layer called them. A test fails if a package is missing.
var layerOf = map[string]string{
	"sim":              "sim",
	"myrinet":          "myrinet",
	"gm":               "gm",
	"sockets":          "sockets",
	"substrate":        "substrate",
	"substrate/fastgm": "substrate",
	"substrate/udpgm":  "substrate",
	"substrate/rdmagm": "substrate",
	"substrate/stest":  "substrate",
	"tmk":              "tmk",
	"apps":             "apps",
	"msg":              "msg",
	"trace":            "",
	"prof":             "",
	"statsutil":        "",
	"harness":          "",
	"ubench":           "",
}

// When a sample's leaf is a Go runtime function, the run of runtime
// frames it sits in decides: the allocator and collector (runtime_mem) if
// any of them contains a memWord, else the scheduler (runtime_sched) if
// any contains a schedWord. Other runtime leaves — map access, hashing,
// equality, a preemption point — are the calling layer's own cost and
// fall through to it.
var (
	memWords = []string{"malloc", "memclr", "memmove", "gc", "GC", "sweep", "scav", "mheap", "mcache",
		"mcentral", "mspan", "growslice", "makeslice", "newobject", "newarray", "copystack", "stackalloc",
		"stackfree", "wbBuf", "WriteBarrier", "typedmemmove", "bulkBarrier"}
	schedWords = []string{"futex", "chan", "park", "schedule", "findRunnable", "lock", "ready", "runq",
		"steal", "wakep", "startm", "stopm", "note", "sema", "selectgo", "gosched", "gopreempt", "mcall",
		"usleep", "osyield", "udog", "netpoll", "casgstatus"}
)

func containsAny(s string, words []string) bool {
	for _, w := range words {
		if strings.Contains(s, w) {
			return true
		}
	}
	return false
}

// pkgOf returns a function's package path: "repro/internal/tmk" for
// "repro/internal/tmk.(*Proc).metaGauge".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold slashes and dots of their own
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return ""
}

// isRuntime reports whether fn belongs to the Go runtime. Its assembly
// bodies (gcWriteBarrier, aeshashbody, memeqbody) carry no package.
func isRuntime(fn string) bool {
	pkg := pkgOf(fn)
	return pkg == "" || pkg == "runtime" || pkg == "internal/bytealg" ||
		strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// bucketOf attributes one stack (leaf first): runtime leaves in the
// allocator, collector or scheduler go to the runtime buckets whoever
// called them; everything else goes to the innermost frame that belongs
// to a layer, so container/heap under sim counts as sim.
func bucketOf(stack []string) string {
	n := 0
	for n < len(stack) && isRuntime(stack[n]) {
		n++
	}
	if n > 0 {
		rt := strings.Join(stack[:n], " ")
		switch {
		case containsAny(rt, memWords):
			return "runtime_mem"
		case containsAny(rt, schedWords), n == len(stack): // a runtime thread of its own idles in the scheduler
			return "runtime_sched"
		}
	}
	const internal = "repro/internal/"
	for _, fn := range stack[n:] {
		if pkg := pkgOf(fn); strings.HasPrefix(pkg, internal) {
			if layer := layerOf[pkg[len(internal):]]; layer != "" {
				return layer
			}
		}
	}
	return "other"
}

// bucketShares returns each bucket's share of the samples, in percent.
func bucketShares(samples []sample) map[string]float64 {
	pct := make(map[string]float64, len(buckets))
	var total int64
	for _, s := range samples {
		pct[bucketOf(s.stack)] += float64(s.count)
		total += s.count
	}
	for b := range pct {
		pct[b] *= 100 / float64(total)
	}
	return pct
}
