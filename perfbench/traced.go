package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"aanoc"
	"aanoc/internal/serve"
	"aanoc/internal/sweep"
	"aanoc/internal/system"
)

// attribTolerance bounds the gap between the profiled CPU of the RunTo
// spans and the process CPU the same spans consumed, as a share of the
// latter; otherShare bounds the CPU billed to no named module.
const (
	attribTolerance = 0.10
	otherShare      = 0.10
)

// warmProbes is how many store-served re-POSTs the traced run's service
// probe sends.
const warmProbes = 20

// traced is the per-layer run. Every point runs w.traced cycles twice:
// once untraced (the overhead reference), once with the RunTo span
// profiled and its allocation measured. Spans around system.New,
// Runner.Finish, obs.EncodeJSON, the store and the service are timed
// from the harness; the work counts come from each run's result.
func (b *bench) traced(w workload) {
	cycles := w.traced
	var untracedCPU time.Duration
	var ref []system.Result
	for _, p := range w.points {
		cfg, err := p.config(cycles, 0, b.simSeed)
		if !b.op(err, p.String()) {
			return
		}
		r, err := system.New(cfg)
		if !b.op(err, p.String()) {
			return
		}
		c0 := cpuTime()
		r.RunTo(cycles)
		untracedCPU += cpuTime() - c0
		ref = append(ref, r.Finish())
	}

	var prof bytes.Buffer
	if !b.op(pprof.StartCPUProfile(&prof), "start CPU profile") {
		return
	}
	var (
		newMS, finishMS, encodeMS, reportBytes []float64
		tracedCPU                              time.Duration
		results                                []system.Result
		cfgs                                   []system.Config
		allocs                                 = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
		allocBytes, gcCycles                   uint64
	)
	ctx := pprof.WithLabels(context.Background(), pprof.Labels("span", "runto"))
	for i, p := range w.points {
		t0 := time.Now()
		cfg, err := p.config(cycles, 0, b.simSeed)
		if !b.op(err, p.String()) {
			break
		}
		r, err := system.New(cfg)
		newMS = append(newMS, ms(time.Since(t0)))
		if !b.op(err, p.String()) {
			break
		}

		metrics.Read(allocs)
		a0, g0 := allocs[0].Value.Uint64(), allocs[1].Value.Uint64()
		c0 := cpuTime()
		pprof.SetGoroutineLabels(ctx)
		r.RunTo(cycles)
		pprof.SetGoroutineLabels(context.Background())
		tracedCPU += cpuTime() - c0
		metrics.Read(allocs)
		allocBytes += allocs[0].Value.Uint64() - a0
		gcCycles += allocs[1].Value.Uint64() - g0

		t0 = time.Now()
		res := r.Finish()
		finishMS = append(finishMS, ms(time.Since(t0)))
		t0 = time.Now()
		enc, err := encodeReport(res.Obs)
		encodeMS = append(encodeMS, ms(time.Since(t0)))
		b.op(err, p.String()+": encode")
		reportBytes = append(reportBytes, float64(len(enc)))
		b.op(res.Obs.Validate(), p.String()+": report")
		b.check(reflect.DeepEqual(res, ref[i]), "%s: traced result differs from the untraced one", p)
		results = append(results, res)
		cfgs = append(cfgs, cfg)
	}
	pprof.StopCPUProfile()
	if len(results) != len(w.points) {
		return
	}

	b.metrics["system.new_ms"] = median(newMS)
	b.metrics["system.finish_ms"] = median(finishMS)
	b.metrics["obs.encode_ms"] = median(encodeMS)
	b.metrics["obs.report_bytes"] = median(reportBytes)

	total := float64(cycles) * float64(len(w.points))
	b.workCounts(results, total)
	b.metrics["runtime.alloc_bytes_per_kcycle"] = float64(allocBytes) / (total / 1000)
	b.metrics["runtime.gc_cycles"] = float64(gcCycles)
	b.metrics["trace.overhead_frac"] = float64(tracedCPU)/float64(untracedCPU) - 1
	b.metrics["trace.cpu_ns_per_cycle"] = float64(tracedCPU) / total

	samples, err := parseProfile(prof.Bytes())
	if b.op(err, "decode CPU profile") {
		a := attribute(samples, "span", "runto")
		for _, m := range modules {
			b.metrics[m+".cpu_ns_per_cycle"] = float64(a.moduleNS[m]) / total
		}
		b.metrics["noc.ns_per_flit_hop"] = float64(a.moduleNS["noc"]) / b.metrics["noc.flit_hops"]
		b.metrics["memctrl.ns_per_cmd_cycle"] = float64(a.moduleNS["memctrl"]) / b.metrics["memctrl.cmd_cycles"]
		b.metrics["memctrl.next_event_frac"] = float64(a.nextEventNS) / float64(max(a.totalNS, 1))
		gap := float64(a.totalNS)/float64(tracedCPU) - 1
		b.metrics["trace.attrib_gap_frac"] = gap
		b.samples["profile"] = int(a.ticks)
		b.check(gap >= -attribTolerance && gap <= attribTolerance,
			"module CPU sums to %.1f%% off the RunTo span's CPU (tolerance %.0f%%)", 100*gap, 100*attribTolerance)
		b.check(float64(a.moduleNS["other"]) <= otherShare*float64(a.totalNS),
			"%.1f%% of RunTo CPU is billed to no module", 100*float64(a.moduleNS["other"])/float64(max(a.totalNS, 1)))
	}

	b.storeProbe(cfgs, results)
	b.serviceProbe(w)
}

// workCounts reports the exact, deterministic per-layer work of the
// traced runs, summed over points, and the modelled-outcome sentinels,
// averaged over points.
func (b *bench) workCounts(results []system.Result, cycles float64) {
	var hops, grants, cmds, reads, writes, acts, hits, gen, done, stalls int64
	var util, lat, p95 []float64
	for _, r := range results {
		hops += r.NetBusyCycles
		grants += r.GSSGrants
		cmds += r.CmdCycles
		reads += r.Device.Reads
		writes += r.Device.Writes
		acts += r.Device.Activates
		for _, bk := range r.Obs.Memory.Banks {
			hits += bk.RowHits
		}
		gen += r.Generated
		done += r.Completed
		stalls += r.Obs.Stalled
		util = append(util, r.Utilization)
		lat = append(lat, r.LatAll)
		p95 = append(p95, float64(r.P95All))
	}
	b.metrics["noc.flit_hops"] = float64(hops)
	b.metrics["core.gss_grants"] = float64(grants)
	b.metrics["memctrl.cmd_cycles"] = float64(cmds)
	b.metrics["dram.reads"] = float64(reads)
	b.metrics["dram.writes"] = float64(writes)
	b.metrics["dram.activates"] = float64(acts)
	b.metrics["dram.row_hit_rate"] = float64(hits) / float64(max(reads+writes, 1))
	b.metrics["traffic.generated"] = float64(gen)
	b.metrics["system.completed"] = float64(done)
	b.metrics["system.inject_stalls"] = float64(stalls)
	b.metrics["dram.utilization"] = mean(util)
	b.metrics["system.lat_all_cycles"] = mean(lat)
	b.metrics["system.lat_p95_cycles"] = mean(p95)
}

// storeProbe times direct Put and Get calls on the workload's
// fingerprints against a fresh store and checks the round trip.
func (b *bench) storeProbe(cfgs []system.Config, results []system.Result) {
	st, err := aanoc.OpenStore(filepath.Join(b.workdir, "probe-store"), aanoc.StoreOptions{})
	if !b.op(err, "open store") {
		return
	}
	var put, get []float64
	for i, cfg := range cfgs {
		fp, ok := sweep.Fingerprint(cfg)
		if !b.check(ok, "point %d has no fingerprint", i) {
			continue
		}
		t0 := time.Now()
		err := st.Put(fp, results[i])
		put = append(put, ms(time.Since(t0)))
		if !b.op(err, "store put") {
			continue
		}
		t0 = time.Now()
		got, hit, err := st.Get(fp)
		get = append(get, ms(time.Since(t0)))
		if b.op(err, "store get") && b.check(hit, "store missed %s", fp) {
			want, _ := encodeReport(results[i].Obs)
			have, _ := encodeReport(got.Obs)
			b.check(bytes.Equal(want, have), "store round trip changed the report of %s", fp)
		}
	}
	b.metrics["store.put_ms"] = median(put)
	b.metrics["store.get_ms"] = median(get)
}

// serviceProbe drives an in-process aanoc-serve: one cold POST, then
// warmProbes store-served re-POSTs, fetching every stored report once.
// sweep-service posts its own grid. The simulation workloads send no
// requests of their own, but a traced run prints every per-layer
// metric, so they post a fixed three-point probe (the saturated pair at
// its check length, one point twice so the in-process cache is hit;
// the standby model is not servable by name): on them the serve.* and
// sweep.* figures measure that probe, not the workload.
func (b *bench) serviceProbe(w workload) {
	grid, cycles := w.points, w.pass
	if !w.service {
		sat := workloads["saturated"]
		grid, cycles = []point{sat.points[0], sat.points[1], sat.points[0]}, sat.check
	}
	wire := make([]serve.Point, len(grid))
	for i, p := range grid {
		wire[i] = p.wire(cycles, b.simSeed)
	}
	s, err := startService(filepath.Join(b.workdir, "probe-service"))
	if !b.op(err, "start service") {
		return
	}
	defer s.close()

	var post, stream, result []float64
	var runs, cacheHits, storeHits int
	for n := 0; n <= warmProbes; n++ {
		c, err := s.sweep(wire)
		if !b.op(err, fmt.Sprintf("probe sweep %d", n)) {
			continue
		}
		post = append(post, ms(c.post))
		stream = append(stream, ms(c.stream))
		for _, r := range c.done.Results {
			b.check(r.Error == "", "probe point %d: %s", r.Index, r.Error)
		}
		switch n {
		case 0:
			runs, cacheHits = c.done.Stats.Runs, c.done.Stats.CacheHits
			for _, fp := range fingerprints(c.done) {
				t0 := time.Now()
				_, err := s.result(fp)
				result = append(result, ms(time.Since(t0)))
				b.op(err, "probe result")
			}
		case 1:
			storeHits = c.done.Stats.StoreHits
		}
	}
	b.metrics["serve.post_ms"] = median(post)
	b.metrics["serve.stream_ms"] = median(stream)
	b.metrics["serve.result_ms"] = median(result)
	b.metrics["sweep.runs"] = float64(runs)
	b.metrics["sweep.cache_hits"] = float64(cacheHits)
	b.metrics["sweep.store_hits"] = float64(storeHits)
}
