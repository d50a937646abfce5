package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file turns a runtime/pprof CPU profile into per-module CPU time.
// No public boundary separates the simulation layers inside
// Runner.RunTo, so the traced run profiles that span (its samples carry
// the pprof label span=runto) and bills each sample's flat CPU to the
// module of its leaf frame. The profile is decoded here with a minimal
// protobuf reader because the standard library ships no public parser.

// modules are the buckets the traced run reports, in report order.
var modules = []string{"sim", "noc", "core", "router", "memctrl", "dram", "mapping", "traffic", "system", "runtime", "other"}

// internalModules bills every aanoc/internal package to a module. The
// simulation layers are their own modules; the remaining packages are
// billed to the layer that calls them inside RunTo (latency statistics
// and checked-mode audits to system, trace replay and the application
// models to traffic). attrib_test.go fails when a package is missing.
var internalModules = map[string]string{
	"sim": "sim", "noc": "noc", "core": "core", "router": "router",
	"memctrl": "memctrl", "dram": "dram", "mapping": "mapping",
	"traffic": "traffic", "system": "system",
	"appmodel": "traffic", "trace": "traffic",
	"stats": "system", "check": "system", "obs": "system",
	"scenario": "system", "sweep": "system", "store": "system",
	"serve": "system", "prof": "system", "paperdata": "system",
	"area": "system",
}

// packageOf returns the import path of a pprof function name such as
// "aanoc/internal/noc.(*Mesh).Arbitrate" or "slices.Sort[...]".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// moduleOf maps a function name to the module its CPU is billed to.
func moduleOf(fn string) string {
	pkg := packageOf(fn)
	switch {
	case pkg == "aanoc":
		return "system"
	case strings.HasPrefix(pkg, "aanoc/internal/"):
		name, _, _ := strings.Cut(strings.TrimPrefix(pkg, "aanoc/internal/"), "/")
		if m, ok := internalModules[name]; ok {
			return m
		}
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// sample is one decoded profile sample: its stack as function names per
// location (innermost inlined frame first within a location, leaf
// location first), how many profiling ticks it stands for, their CPU
// nanoseconds, and its labels.
type sample struct {
	stack  [][]string
	count  int64
	cpuNS  int64
	labels map[string]string
}

// attribution is the per-module flat CPU of the labelled samples.
type attribution struct {
	moduleNS    map[string]int64
	totalNS     int64
	ticks       int64 // profiling ticks behind totalNS
	nextEventNS int64 // samples with a memctrl NextEvent frame anywhere on the stack
}

// attribute bills every sample labelled key=value to the module of its
// leaf frame. Inlined frames count toward their own package: the leaf
// is the innermost line of the leaf location, not the function it was
// inlined into.
func attribute(samples []sample, key, value string) attribution {
	a := attribution{moduleNS: map[string]int64{}}
	for _, s := range samples {
		if s.labels[key] != value || len(s.stack) == 0 || len(s.stack[0]) == 0 {
			continue
		}
		a.moduleNS[moduleOf(s.stack[0][0])] += s.cpuNS
		a.totalNS += s.cpuNS
		a.ticks += s.count
		if onStack(s.stack, isNextEvent) {
			a.nextEventNS += s.cpuNS
		}
	}
	return a
}

func onStack(stack [][]string, pred func(string) bool) bool {
	for _, loc := range stack {
		for _, fn := range loc {
			if pred(fn) {
				return true
			}
		}
	}
	return false
}

// isNextEvent matches the controllers' wake-bound computation
// (Controller.NextEvent and the engine's nextEvent).
func isNextEvent(fn string) bool {
	if packageOf(fn) != "aanoc/internal/memctrl" {
		return false
	}
	method := fn[strings.LastIndexByte(fn, '.')+1:]
	return method == "NextEvent" || method == "nextEvent"
}

// parseProfile decodes a gzip-compressed pprof CPU profile into samples.
func parseProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
		labels [][2]uint64 // key, str string indices
	}
	var (
		strs      []string
		types     []uint64 // sample_type type string indices
		rsamples  []rawSample
		locLines  = map[uint64][]uint64{} // location id -> function ids
		funcNames = map[uint64]uint64{}   // function id -> name string index
	)
	p := pb{b: raw}
	for !p.done() {
		field, wire := p.key()
		switch {
		case field == 1 && wire == 2: // sample_type
			m := pb{b: p.bytes()}
			for !m.done() {
				if f, w := m.key(); f == 1 && w == 0 {
					types = append(types, m.varint())
				} else {
					m.skip(w)
				}
			}
			p.err = errors.Join(p.err, m.err)
		case field == 2 && wire == 2: // sample
			var s rawSample
			m := pb{b: p.bytes()}
			for !m.done() {
				f, w := m.key()
				switch {
				case f == 1:
					s.locs = m.uints(w, s.locs)
				case f == 2:
					s.values = m.uints(w, s.values)
				case f == 3 && w == 2:
					var kv [2]uint64
					l := pb{b: m.bytes()}
					for !l.done() {
						lf, lw := l.key()
						if (lf == 1 || lf == 2) && lw == 0 {
							kv[lf-1] = l.varint()
						} else {
							l.skip(lw)
						}
					}
					m.err = errors.Join(m.err, l.err)
					s.labels = append(s.labels, kv)
				default:
					m.skip(w)
				}
			}
			p.err = errors.Join(p.err, m.err)
			rsamples = append(rsamples, s)
		case field == 4 && wire == 2: // location
			var id uint64
			var fns []uint64
			m := pb{b: p.bytes()}
			for !m.done() {
				f, w := m.key()
				switch {
				case f == 1 && w == 0:
					id = m.varint()
				case f == 4 && w == 2:
					l := pb{b: m.bytes()}
					for !l.done() {
						if lf, lw := l.key(); lf == 1 && lw == 0 {
							fns = append(fns, l.varint())
						} else {
							l.skip(lw)
						}
					}
					m.err = errors.Join(m.err, l.err)
				default:
					m.skip(w)
				}
			}
			p.err = errors.Join(p.err, m.err)
			locLines[id] = fns
		case field == 5 && wire == 2: // function
			var id, name uint64
			m := pb{b: p.bytes()}
			for !m.done() {
				f, w := m.key()
				switch {
				case f == 1 && w == 0:
					id = m.varint()
				case f == 2 && w == 0:
					name = m.varint()
				default:
					m.skip(w)
				}
			}
			p.err = errors.Join(p.err, m.err)
			funcNames[id] = name
		case field == 6 && wire == 2: // string_table
			strs = append(strs, string(p.bytes()))
		default:
			p.skip(wire)
		}
	}
	if p.err != nil {
		return nil, fmt.Errorf("profile: %w", p.err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpuIdx, countIdx := -1, -1
	for i, t := range types {
		switch str(t) {
		case "cpu":
			cpuIdx = i
		case "samples":
			countIdx = i
		}
	}
	if cpuIdx < 0 || countIdx < 0 {
		return nil, errors.New("profile: missing the samples or cpu sample type")
	}
	out := make([]sample, 0, len(rsamples))
	for _, rs := range rsamples {
		if cpuIdx >= len(rs.values) || countIdx >= len(rs.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		s := sample{count: int64(rs.values[countIdx]), cpuNS: int64(rs.values[cpuIdx]), labels: map[string]string{}}
		for _, id := range rs.locs {
			var names []string
			for _, fid := range locLines[id] {
				names = append(names, str(funcNames[fid]))
			}
			s.stack = append(s.stack, names)
		}
		for _, kv := range rs.labels {
			s.labels[str(kv[0])] = str(kv[1])
		}
		out = append(out, s)
	}
	return out, nil
}

// pb is a protobuf wire-format reader; the first error sticks and ends
// the message.
type pb struct {
	b   []byte
	err error
}

func (p *pb) done() bool { return p.err != nil || len(p.b) == 0 }

func (p *pb) varint() uint64 {
	var v uint64
	for i := 0; i < 10 && i < len(p.b); i++ {
		c := p.b[i]
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			p.b = p.b[i+1:]
			return v
		}
	}
	p.fail("bad varint")
	return 0
}

func (p *pb) key() (field, wire int) {
	k := p.varint()
	return int(k >> 3), int(k & 7)
}

func (p *pb) bytes() []byte {
	n := p.varint()
	if p.err != nil || n > uint64(len(p.b)) {
		p.fail("truncated field")
		return nil
	}
	v := p.b[:n]
	p.b = p.b[n:]
	return v
}

// uints appends a repeated integer field in either packed (wire 2) or
// unpacked (wire 0) encoding.
func (p *pb) uints(wire int, dst []uint64) []uint64 {
	switch wire {
	case 0:
		return append(dst, p.varint())
	case 2:
		m := pb{b: p.bytes()}
		for !m.done() {
			dst = append(dst, m.varint())
		}
		p.err = errors.Join(p.err, m.err)
	default:
		p.skip(wire)
	}
	return dst
}

func (p *pb) skip(wire int) {
	n := 0
	switch wire {
	case 0:
		p.varint()
		return
	case 1:
		n = 8
	case 2:
		p.bytes()
		return
	case 5:
		n = 4
	default:
		p.fail(fmt.Sprintf("unsupported wire type %d", wire))
		return
	}
	if n > len(p.b) {
		p.fail("truncated field")
		return
	}
	p.b = p.b[n:]
}

func (p *pb) fail(msg string) {
	if p.err == nil {
		p.err = errors.New(msg)
	}
	p.b = nil
}
