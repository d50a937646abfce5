package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"os"
	"runtime/pprof"
	"slices"
	"testing"
	"time"
)

// Every aanoc/internal package must bill to a named module, so that no
// simulator CPU silently lands in "other" when a package is added.
func TestEveryInternalPackageHasAModule(t *testing.T) {
	entries, err := os.ReadDir("../internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		m := moduleOf("aanoc/internal/" + e.Name() + ".F")
		if m == "other" || !slices.Contains(modules, m) {
			t.Errorf("aanoc/internal/%s bills to %q, want a named module", e.Name(), m)
		}
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"aanoc/internal/noc.(*Mesh).Arbitrate":                                "noc",
		"aanoc/internal/system.(*Runner).injectLogical.func1":                 "system",
		"aanoc/internal/stats.(*Latency).Add":                                 "system",
		"aanoc/internal/trace.(*Replayer).Next":                               "traffic",
		"aanoc/internal/mapping.StructMap.Route":                              "mapping",
		"aanoc.Sweep":                                                         "system",
		"runtime.mallocgc":                                                    "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":                        "runtime",
		"slices.pdqsortCmpFunc[go.shape.struct { aanoc/internal/noc.x int }]": "other",
		"sort.Slice": "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// A location whose leaf is a noc method inlined into a system function
// bills the noc package, and only labelled samples count.
func TestInlinedFramesCountTowardTheirOwnPackage(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds", "span", "runto",
		"aanoc/internal/noc.(*Mesh).Arbitrate", "aanoc/internal/system.(*Runner).Step",
		"aanoc/internal/memctrl.(*Simple).NextEvent", "aanoc/internal/dram.(*Device).ReadyAt"}
	var p []byte
	p = msg(p, 1, field(nil, 1, 1), field(nil, 2, 2)) // sample_type samples/count
	p = msg(p, 1, field(nil, 1, 3), field(nil, 2, 4)) // sample_type cpu/nanoseconds
	// location 1: noc inlined into system; location 2: dram leaf;
	// location 3: memctrl NextEvent, the caller of location 2.
	p = msg(p, 4, field(nil, 1, 1), msg(nil, 4, field(nil, 1, 1)), msg(nil, 4, field(nil, 1, 2)))
	p = msg(p, 4, field(nil, 1, 2), msg(nil, 4, field(nil, 1, 4)))
	p = msg(p, 4, field(nil, 1, 3), msg(nil, 4, field(nil, 1, 3)))
	for id, name := range map[uint64]uint64{1: 7, 2: 8, 3: 9, 4: 10} {
		p = msg(p, 5, field(nil, 1, id), field(nil, 2, name))
	}
	label := msg(nil, 3, field(nil, 1, 5), field(nil, 2, 6))
	p = msg(p, 2, field(nil, 1, 1), packed(2, 1, 10e6), label)
	p = msg(p, 2, packed(1, 2, 3), packed(2, 1, 30e6), label)
	p = msg(p, 2, field(nil, 1, 1), packed(2, 5, 50e6)) // unlabelled: not RunTo
	for _, s := range strs {
		p = msg(p, 6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()

	samples, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	a := attribute(samples, "span", "runto")
	if a.moduleNS["noc"] != 10e6 || a.moduleNS["system"] != 0 || a.moduleNS["dram"] != 30e6 {
		t.Errorf("moduleNS = %v, want noc 10ms and dram 30ms", a.moduleNS)
	}
	if a.totalNS != 40e6 || a.ticks != 2 || a.nextEventNS != 30e6 {
		t.Errorf("total %d in %d ticks, NextEvent %d; want 40ms in 2 ticks and 30ms", a.totalNS, a.ticks, a.nextEventNS)
	}
}

// The decoder reads what runtime/pprof writes.
func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	pprof.Do(context.Background(), pprof.Labels("span", "runto"), func(context.Context) { spin(300 * time.Millisecond) })
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	a := attribute(samples, "span", "runto")
	if a.totalNS == 0 {
		t.Fatalf("no labelled CPU in %d samples", len(samples))
	}
	if a.moduleNS["other"] < a.totalNS/2 {
		t.Errorf("the spin loop (package main) billed %v, want mostly other", a.moduleNS)
	}
}

var sink uint64

func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			sink = sink*6364136223846793005 + 1
		}
	}
}

// field appends a varint field (wire type 0) to b.
func field(b []byte, num int, v uint64) []byte {
	return appendVarint(appendVarint(b, uint64(num)<<3), v)
}

// msg appends a length-delimited field holding the concatenated parts.
func msg(b []byte, num int, parts ...[]byte) []byte {
	body := bytes.Join(parts, nil)
	b = appendVarint(b, uint64(num)<<3|2)
	b = appendVarint(b, uint64(len(body)))
	return append(b, body...)
}

// packed encodes a packed repeated varint field.
func packed(num int, vs ...uint64) []byte {
	var body []byte
	for _, v := range vs {
		body = appendVarint(body, v)
	}
	return msg(nil, num, body)
}

func appendVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}
