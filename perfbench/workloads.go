package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"

	"aanoc/internal/appmodel"
	"aanoc/internal/obs"
	"aanoc/internal/scenario"
	"aanoc/internal/serve"
	"aanoc/internal/system"
)

// point is one simulation point of a workload.
type point struct {
	model     string // appmodel name; "lowutil" is the standby model
	design    system.Design
	gen       int
	scheduler string // "" is the design's own controller
	channels  int
	subarrays int
}

func (p point) String() string {
	s := fmt.Sprintf("%s/gen%d/%s", p.model, p.gen, p.design)
	if p.scheduler != "" {
		s += "/" + p.scheduler
	}
	if p.channels > 1 {
		s += fmt.Sprintf("/ch%d", p.channels)
	}
	if p.subarrays > 1 {
		s += fmt.Sprintf("/sa%d", p.subarrays)
	}
	return s
}

// config resolves the point through scenario.Resolve, the path the
// facade and the service take, so fingerprints agree with theirs.
func (p point) config(cycles, warmup int64, seed uint64) (system.Config, error) {
	var app appmodel.App
	if p.model == "lowutil" {
		app = appmodel.LowUtil()
	} else {
		var err error
		if app, err = appmodel.ByName(p.model); err != nil {
			return system.Config{}, err
		}
	}
	cfg, err := scenario.Resolve(app, scenario.Run{
		Generation: p.gen, Channels: p.channels, Scheduler: p.scheduler,
		Subarrays: p.subarrays, Cycles: cycles, Warmup: warmup, Seed: seed,
	})
	cfg.Design = p.design
	return cfg, err
}

// wire is the point as an aanoc-serve request point.
func (p point) wire(cycles int64, seed uint64) serve.Point {
	return serve.Point{
		Model: p.model, Design: p.design.String(), Generation: p.gen,
		Scheduler: p.scheduler, Channels: p.channels, Subarrays: p.subarrays,
		Cycles: cycles, Seed: seed,
	}
}

// workload is one named set of inputs. The sizes below are fixed by the
// benchmark, not by the machine, so two commits always run the same
// simulated work per chunk, pass, check and traced run.
type workload struct {
	name    string
	points  []point
	service bool // driven through an in-process aanoc-serve

	chunk  int64 // cycles per timed RunTo chunk of the long runs
	pass   int64 // cycles per point of a cold pass (the service's grid runs)
	check  int64 // cycles of the idle-skip-off and checked-mode prefix
	traced int64 // cycles per point in the traced run

	// setup_s is the median over setupBlocks blocks of the mean time of
	// setupPerBlock set-ups: single set-ups take well under a
	// millisecond, too little to time steadily one by one.
	setupBlocks, setupPerBlock int
}

var workloads = map[string]workload{
	// The perf-gate pair: work on every cycle, so the per-flit path
	// (noc Deliver/Arbitrate, GSS Select, memctrl, dram timing, kernel
	// dispatch) does nearly all the work.
	"saturated": {
		name: "saturated",
		points: []point{
			{model: "ddtv", gen: 3, design: system.GSSSAGM},
			{model: "ddtv", gen: 3, design: system.Conv},
		},
		chunk: 8192, pass: 100_000, check: 20_000, traced: 2_500_000,
		setupBlocks: 60, setupPerBlock: 25,
	},
	// Mostly idle: the kernel's idle-skip fast-forward, NextWake bounds
	// and memctrl NextEvent do most of the work; the NoC almost none.
	"standby": {
		name: "standby",
		points: []point{
			{model: "lowutil", gen: 2, design: system.SDRAMAware},
			{model: "lowutil", gen: 2, design: system.GSS},
			{model: "lowutil", gen: 2, design: system.GSSSAGM},
		},
		chunk: 131_072, pass: 2_000_000, check: 50_000, traced: 50_000_000,
		setupBlocks: 60, setupPerBlock: 25,
	},
	// Sweep fan-out, system.New/Finish, obs encode/decode, the store and
	// the HTTP/NDJSON service dominate; it alone reaches DDR4/LPDDR3,
	// multi-channel mapping and the non-default schedulers.
	"sweep-service": {
		name: "sweep-service", points: sweepGrid(), service: true,
		pass: 30_000, traced: 30_000,
		setupBlocks: 30, setupPerBlock: 5,
	},
}

// sweepGrid is the service workload's grid: Table I's 36 app x
// generation x design points, the scheduler zoo on DDR2/DDR4/LPDDR3,
// and one 4-channel DDR4 point with subarrays. The default-scheduler
// DDR2 point repeats a Table I point, so every pass has one in-process
// cache hit.
func sweepGrid() []point {
	var g []point
	for _, app := range []string{"bluray", "sdtv", "ddtv"} {
		for gen := 1; gen <= 3; gen++ {
			for _, d := range []system.Design{system.Conv, system.SDRAMAware, system.GSS, system.GSSSAGM} {
				g = append(g, point{model: app, gen: gen, design: d})
			}
		}
	}
	for _, gen := range []int{2, 4, 5} {
		for _, s := range []string{"", "dpq", "regulated", "staged"} {
			g = append(g, point{model: "bluray", gen: gen, design: system.GSSSAGM, scheduler: s})
		}
	}
	return append(g, point{model: "ddtv4", gen: 4, design: system.GSSSAGM, channels: 4, subarrays: 4})
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile is the p-quantile (0..1) by linear interpolation between
// order statistics; it does not modify xs.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// encodeReport returns the canonical report bytes (obs.EncodeJSON).
func encodeReport(rep *obs.Report) ([]byte, error) {
	var buf bytes.Buffer
	err := obs.EncodeJSON(&buf, rep)
	return buf.Bytes(), err
}

// digest hashes a sequence of report encodings in order.
func digest(reports [][]byte) string {
	h := sha256.New()
	for _, r := range reports {
		sum := sha256.Sum256(r)
		h.Write(sum[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
