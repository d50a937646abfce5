package aanoc

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation, plus the ablation benches DESIGN.md calls out.
// Each benchmark runs complete simulations and reports the paper's
// metrics through b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the quantities behind every published number (at
// benchmark-sized cycle counts; use cmd/aanoc-tables for full runs).

import (
	"fmt"
	"testing"

	"aanoc/internal/appmodel"
	"aanoc/internal/dram"
	"aanoc/internal/memctrl"
	"aanoc/internal/system"
)

// benchCycles keeps benchmark iterations affordable while staying long
// enough to reach steady state.
const benchCycles = 60_000

// reportRun executes cfg once per benchmark iteration and reports the
// paper's metrics.
func reportRun(b *testing.B, cfg system.Config) {
	b.Helper()
	cfg.Cycles = benchCycles
	var last system.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		res, err := system.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Utilization, "util")
	b.ReportMetric(last.LatAll, "lat-all")
	b.ReportMetric(last.LatDemand, "lat-demand")
	if last.LatPriority > 0 {
		b.ReportMetric(last.LatPriority, "lat-priority")
	}
	b.ReportMetric(100*last.WasteFrac, "waste-%")
}

// tableDesigns maps the benchmark name fragments to design/priority mode.
func benchMatrix(b *testing.B, designs []system.Design, priority bool) {
	for _, app := range appmodel.Apps() {
		for _, gen := range []dram.Generation{dram.DDR1, dram.DDR2, dram.DDR3} {
			for _, d := range designs {
				name := fmt.Sprintf("%s/DDR%d/%s", app.Name, gen, d)
				app := app
				gen := gen
				d := d
				b.Run(name, func(b *testing.B) {
					reportRun(b, system.Config{
						App: app, Gen: gen, Design: d, PriorityDemand: priority,
					})
				})
			}
		}
	}
}

// BenchmarkTableI regenerates Table I: CONV, [4], GSS and GSS+SAGM on
// the three applications and DDR generations, no priority requests.
func BenchmarkTableI(b *testing.B) {
	benchMatrix(b, []system.Design{system.Conv, system.SDRAMAware, system.GSS, system.GSSSAGM}, false)
}

// BenchmarkTableII regenerates Table II: the priority-serving designs.
func BenchmarkTableII(b *testing.B) {
	benchMatrix(b, []system.Design{system.ConvPFS, system.SDRAMAwarePFS, system.GSS, system.GSSSAGM}, true)
}

// BenchmarkTableIII regenerates Table III: STI on high-clock DDR3 under
// the paper-literal tag-every-request page policy.
func BenchmarkTableIII(b *testing.B) {
	for _, app := range appmodel.Apps() {
		for _, d := range []system.Design{system.GSSSAGM, system.GSSSAGMSTI} {
			app := app
			d := d
			b.Run(fmt.Sprintf("%s/%s", app.Name, d), func(b *testing.B) {
				reportRun(b, system.Config{
					App: app, Gen: dram.DDR3, Design: d,
					PriorityDemand: true, TagEveryRequest: true,
				})
			})
		}
	}
}

// BenchmarkFig8 regenerates the Fig. 8 sweep: memory performance versus
// the number of GSS routers for the paper's three app/clock pairings.
func BenchmarkFig8(b *testing.B) {
	curves := []struct {
		app   string
		gen   dram.Generation
		clock int
	}{
		{"sdtv", dram.DDR1, 200},
		{"bluray", dram.DDR2, 333},
		{"ddtv", dram.DDR3, 667},
	}
	for _, c := range curves {
		app, err := appmodel.ByName(c.app)
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k <= app.Width*app.Height; k += 3 {
			n := k
			if k == 0 {
				n = -1
			}
			c := c
			app := app
			b.Run(fmt.Sprintf("%s/gss-routers-%d", c.app, k), func(b *testing.B) {
				reportRun(b, system.Config{
					App: app, Gen: c.gen, ClockMHz: c.clock,
					Design: system.GSSSAGM, GSSRouters: n, PriorityDemand: true,
				})
			})
		}
	}
}

// BenchmarkTableIV regenerates the gate-count model (Table IV). The model
// is analytic, so the benchmark measures its evaluation and reports the
// headline gate counts.
func BenchmarkTableIV(b *testing.B) {
	var rows []AreaRow
	for i := 0; i < b.N; i++ {
		rows = TableIV()
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.NoC3x3), "gates-"+r.Design)
	}
}

// BenchmarkTableV regenerates the power model (Table V).
func BenchmarkTableV(b *testing.B) {
	var rows []PowerRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = TableV(TableOptions{Cycles: benchCycles, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.PowerMW, fmt.Sprintf("mW-%s-%s", r.App, r.Design))
	}
}

// BenchmarkAblationPCT sweeps the priority control token from the
// priority-equal to the priority-first degenerate settings (the design
// space behind Fig. 1).
func BenchmarkAblationPCT(b *testing.B) {
	for pct := 1; pct <= 5; pct++ {
		pct := pct
		b.Run(fmt.Sprintf("pct-%d", pct), func(b *testing.B) {
			reportRun(b, system.Config{
				App: appmodel.BluRay(), Gen: dram.DDR2,
				Design: system.GSS, PCT: pct, PriorityDemand: true,
			})
		})
	}
}

// BenchmarkAblationGranularity sweeps the SAGM split granularity.
func BenchmarkAblationGranularity(b *testing.B) {
	for _, g := range []int{2, 4, 8, 16} {
		g := g
		b.Run(fmt.Sprintf("beats-%d", g), func(b *testing.B) {
			reportRun(b, system.Config{
				App: appmodel.BluRay(), Gen: dram.DDR2,
				Design: system.GSSSAGM, SplitGranularity: g, PriorityDemand: true,
			})
		})
	}
}

// BenchmarkAblationPagePolicy compares the paper's partially-open-page
// policy against always-open and closed-page on the SAGM design.
func BenchmarkAblationPagePolicy(b *testing.B) {
	for _, p := range []memctrl.PagePolicy{memctrl.OpenPage, memctrl.PartialOpenPage, memctrl.ClosedPage} {
		p := p
		b.Run(p.String(), func(b *testing.B) {
			policy := p
			reportRun(b, system.Config{
				App: appmodel.BluRay(), Gen: dram.DDR2,
				Design: system.GSSSAGM, PagePolicy: &policy, PriorityDemand: true,
			})
		})
	}
}

// BenchmarkAblationAutoPrecharge isolates the Fig. 5 effect: the SAGM
// design with the paper's tag-driven auto-precharge versus the same
// design forced to close pages with explicit PRE commands only
// (open-page policy, BL4 mode) — the command congestion AP removes.
func BenchmarkAblationAutoPrecharge(b *testing.B) {
	open := memctrl.OpenPage
	cases := []struct {
		name   string
		policy *memctrl.PagePolicy
	}{
		{"with-AP", nil}, // design default: partially-open page
		{"explicit-PRE", &open},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			reportRun(b, system.Config{
				App: appmodel.BluRay(), Gen: dram.DDR2,
				Design: system.GSSSAGM, PagePolicy: c.policy, PriorityDemand: true,
			})
		})
	}
}

// BenchmarkAblationTagPolicy compares the paper-literal tag-every-request
// partially-open-page policy with the row-aware tagging this
// reproduction defaults to.
func BenchmarkAblationTagPolicy(b *testing.B) {
	for _, every := range []bool{false, true} {
		name := "row-aware-tags"
		if every {
			name = "tag-every-request"
		}
		every := every
		b.Run(name, func(b *testing.B) {
			reportRun(b, system.Config{
				App: appmodel.BluRay(), Gen: dram.DDR3,
				Design: system.GSSSAGMSTI, TagEveryRequest: every, PriorityDemand: true,
			})
		})
	}
}

// BenchmarkAblationVirtualChannels contrasts the two remedies for long
// best-effort packets blocking priority packets: the paper's SAGM
// splitting versus a dedicated priority virtual channel (the buffer
// organisation the paper names as the alternative), and both together.
func BenchmarkAblationVirtualChannels(b *testing.B) {
	cases := []struct {
		name string
		d    system.Design
		vcs  int
	}{
		{"gss-wormhole", system.GSS, 1},
		{"gss-priority-vc", system.GSS, 2},
		{"gss-sagm", system.GSSSAGM, 1},
		{"gss-sagm-priority-vc", system.GSSSAGM, 2},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			reportRun(b, system.Config{
				App: appmodel.BluRay(), Gen: dram.DDR2,
				Design: c.d, VirtualChannels: c.vcs, PriorityDemand: true,
			})
		})
	}
}

// BenchmarkAblationRouting compares the paper's deterministic XY routing
// with the west-first adaptive turn model on the congested dual-DTV
// system. Expected outcome: near-identical metrics — with the memory
// subsystem in the mesh corner, the congested request path has no
// minimal-path diversity for adaptivity to exploit (responses spread
// across east/south paths, visible in per-port busy counters), which is
// consistent with the paper's choice of deterministic XY routing.
func BenchmarkAblationRouting(b *testing.B) {
	for _, adaptive := range []bool{false, true} {
		name := "xy"
		if adaptive {
			name = "west-first-adaptive"
		}
		adaptive := adaptive
		b.Run(name, func(b *testing.B) {
			reportRun(b, system.Config{
				App: appmodel.DualDTV(), Gen: dram.DDR3,
				Design: system.GSSSAGM, AdaptiveRouting: adaptive, PriorityDemand: true,
			})
		})
	}
}

// BenchmarkFormatRows measures table rendering at report scale (every
// driver's rows in one call). The strings.Builder implementation is
// linear; the CI bench smoke step keeps it from regressing to the old
// quadratic concatenation.
func BenchmarkFormatRows(b *testing.B) {
	rows := make([]Row, 1024)
	for i := range rows {
		rows[i] = Row{
			App: "bluray", Gen: 2, ClockMHz: 333, Design: GSSSAGM,
			Utilization: 0.85, UsefulUtilization: 0.78,
			LatencyAll: 500, LatencyDemand: 300, LatencyPriority: 120,
			Completed: int64(i), WasteFrac: 0.08,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = FormatRows(rows)
	}
	b.ReportMetric(float64(len(out)), "bytes")
}

// BenchmarkTableIParallel measures the Table I grid through the sweep
// executor at full parallelism against the serial baseline
// (BenchmarkTableI covers per-point cost; this covers the fan-out).
func BenchmarkTableIParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := TableI(TableOptions{Cycles: benchCycles / 4, Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableLowUtil measures the simulation kernel's activity-driven
// idle-skip in the regime it targets: the low-utilization standby model,
// where most cycles have no flit in flight and no bank open. Each design
// runs twice — idle-skip on (the default) and forced off — over the same
// workload, so the cycles/s ratio between the skip and noskip variants
// is the kernel's wall-clock win (CI records it in BENCH_kernel.json).
// The saturated Table I–III grids bound the overhead instead: with work
// on every cycle there is nothing to skip.
func BenchmarkTableLowUtil(b *testing.B) {
	for _, d := range []system.Design{system.SDRAMAware, system.GSS, system.GSSSAGM} {
		for _, skip := range []bool{true, false} {
			name := fmt.Sprintf("%s/skip", d)
			if !skip {
				name = fmt.Sprintf("%s/noskip", d)
			}
			d := d
			skip := skip
			b.Run(name, func(b *testing.B) {
				cfg := system.Config{
					App: appmodel.LowUtil(), Gen: dram.DDR2, Design: d,
					PriorityDemand: true, Cycles: benchCycles,
				}
				var last system.Result
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cfg.Seed = uint64(i + 1)
					r, err := system.New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					r.SetIdleSkip(skip)
					r.RunTo(cfg.Cycles)
					last = r.Finish()
				}
				b.ReportMetric(float64(benchCycles*int64(b.N))/b.Elapsed().Seconds(), "cycles/s")
				b.ReportMetric(last.Utilization, "util")
				b.ReportMetric(last.LatAll, "lat-all")
			})
		}
	}
}

// BenchmarkHotPath is the saturated measurement pair: the two most
// saturated Table I points, reported as cycles/s, the per-flit cost of
// the flattened hot path (SoA router state, packet/flit pooling, the
// event-queue controller). The same pair is perfbench's saturated
// workload, which the CI perf gate compares against the merge base on
// one machine (perfbench/compare.py --ab). Unlike the low-util
// benchmarks, these runs have work on nearly every cycle, so idle-skip
// cannot hide a regression on the per-flit path.
func BenchmarkHotPath(b *testing.B) {
	cases := []struct {
		name string
		cfg  system.Config
	}{
		// The slowest Table I point: the dual-DTV app saturates the mesh
		// and keeps the GSS allocators' candidate sets full.
		{"ddtv/DDR3/GSS+SAGM", system.Config{
			App: appmodel.DualDTV(), Gen: dram.DDR3, Design: system.GSSSAGM,
		}},
		// The conventional design on the same workload: exercises the
		// MemMax controller path instead of Simple+GSS.
		{"ddtv/DDR3/CONV", system.Config{
			App: appmodel.DualDTV(), Gen: dram.DDR3, Design: system.Conv,
		}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			c.cfg.Cycles = benchCycles
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.cfg.Seed = uint64(i + 1)
				if _, err := system.Run(c.cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(benchCycles*int64(b.N))/b.Elapsed().Seconds(), "cycles/s")
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed (cycles per
// second) on the largest configuration — a capacity check, not a paper
// figure.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := system.Config{
		App: appmodel.DualDTV(), Gen: dram.DDR3,
		Design: system.GSSSAGMSTI, PriorityDemand: true, Cycles: benchCycles,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := system.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchCycles*int64(b.N))/b.Elapsed().Seconds(), "cycles/s")
}
