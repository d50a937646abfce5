package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"aanoc/internal/system"
)

// The host's speed drifts by up to a third over stretches of seconds to
// minutes (cache and memory-bandwidth contention from other tenants), so
// every untraced run spreads its samples over the whole measured
// interval rather than taking them in one burst: set-up blocks and cold
// passes are interleaved with the long runs at even intervals.

// longCycles bounds the time-boxed long runs; they stop on the clock,
// never on it.
const longCycles = int64(1) << 40

// longWarmup is the latency-sampling warm-up of the long runs, so the
// per-completion statistics path runs as it does in a normal run.
const longWarmup = 20_000

// p95Window is how many latencies (RunTo chunks, or one service's warm
// requests) make one window for the warm percentiles: enough that ten
// lie beyond each window's p95.
const p95Window = 200

// coldPassReps is how many cold passes a simulation workload times.
const coldPassReps = 14

// schedule spreads n events evenly over an interval.
type schedule struct {
	start    time.Time
	interval time.Duration
	n, done  int
}

// due reports whether the next event's time has come; once the
// interval has passed, every remaining event is due.
func (s *schedule) due() bool {
	return s.done < s.n && time.Since(s.start) >= time.Duration(s.done)*s.interval/time.Duration(s.n)
}

// simE2E is the untraced run of saturated and standby: one long
// time-boxed run per point, the runs advanced in turn chunk by chunk so
// host drift falls on every point alike, with set-up blocks and cold
// passes interleaved; then the output checks.
func (b *bench) simE2E(w workload, budget time.Duration) {
	runners := make([]*system.Runner, len(w.points))
	for i, p := range w.points {
		cfg, err := p.config(longCycles, longWarmup, b.simSeed)
		if !b.op(err, p.String()) {
			return
		}
		if runners[i], err = system.New(cfg); !b.op(err, p.String()) {
			return
		}
	}
	setup := func() error {
		for _, p := range w.points {
			cfg, err := p.config(w.pass, 0, b.simSeed)
			if err != nil {
				return err
			}
			if _, err := system.New(cfg); err != nil {
				return err
			}
		}
		return nil
	}

	start := time.Now()
	setups := schedule{start: start, interval: budget, n: w.setupBlocks}
	passes := schedule{start: start, interval: budget, n: coldPassReps}
	var setupTimes, passTimes []float64
	wall := make([][]float64, len(w.points))
	var cycles int64
	var cpu time.Duration
	for time.Since(start) < budget || setups.done < setups.n || passes.done < passes.n {
		if setups.due() {
			t, err := b.setupBlock(w, setup)
			if !b.op(err, "set-up") {
				return
			}
			setupTimes = append(setupTimes, t)
			setups.done++
		}
		if passes.due() {
			t, ok := b.coldPass(w)
			if !ok {
				return
			}
			passTimes = append(passTimes, t)
			passes.done++
		}
		if time.Since(start) >= budget {
			continue // only the set-up blocks and passes still due remain
		}
		for i, r := range runners {
			c0, t0 := cpuTime(), time.Now()
			r.RunTo(r.Now() + w.chunk)
			wall[i] = append(wall[i], float64(time.Since(t0)))
			cpu += cpuTime() - c0
			cycles += w.chunk
		}
	}

	var wallNS float64
	var p50, p95 []float64
	for i, r := range runners {
		p := w.points[i]
		res := r.Finish()
		want := int64(len(wall[i])) * w.chunk
		b.check(res.Cycles == want, "%s: ran %d cycles, want %d", p, res.Cycles, want)
		b.check(res.Completed > 0, "%s: no request completed", p)
		b.op(res.Obs.Validate(), p.String()+": long-run report")
		for _, x := range wall[i] {
			wallNS += x
		}
		p50 = append(p50, windowed(wall[i], 0.5)/1e6)
		p95 = append(p95, windowed(wall[i], 0.95)/1e6)
	}
	// Every point ran the same number of chunks, so the totals weigh the
	// points equally.
	b.metrics["sim_cycles_per_s"] = float64(cycles) / (wallNS / 1e9)
	b.metrics["cpu_ns_per_cycle"] = float64(cpu) / float64(cycles)
	b.metrics["warm_p50_ms"] = mean(p50)
	b.metrics["warm_p95_ms"] = mean(p95)
	b.samples["warm"] = int(cycles / w.chunk)
	b.metrics["setup_s"] = median(setupTimes)
	b.samples["setup"] = w.setupBlocks * w.setupPerBlock
	b.metrics["cold_sweep_s"] = median(passTimes)
	b.samples["cold"] = len(passTimes)

	b.checkPrefix(w)
}

// windowed is the median over consecutive windows of p95Window samples
// of each window's q-quantile: the percentile of a typical stretch of
// the run, which a burst of host noise in one stretch cannot move.
func windowed(xs []float64, q float64) float64 {
	if len(xs) < p95Window {
		return quantile(xs, q)
	}
	var qs []float64
	for i := 0; i+p95Window <= len(xs); i += p95Window {
		qs = append(qs, quantile(xs[i:i+p95Window], q))
	}
	return median(qs)
}

// setupBlock times w.setupPerBlock set-ups after a collection, so every
// block starts from a settled heap, and returns the mean per set-up.
func (b *bench) setupBlock(w workload, build func() error) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	for i := 0; i < w.setupPerBlock; i++ {
		if err := build(); err != nil {
			return 0, err
		}
	}
	return time.Since(t0).Seconds() / float64(w.setupPerBlock), nil
}

// coldPass times one serial pass over every point, each a complete
// w.pass-cycle run from set-up to encoded report.
func (b *bench) coldPass(w workload) (float64, bool) {
	t0 := time.Now()
	for _, p := range w.points {
		cfg, err := p.config(w.pass, 0, b.simSeed)
		if !b.op(err, p.String()) {
			return 0, false
		}
		r, err := system.New(cfg)
		if !b.op(err, p.String()) {
			return 0, false
		}
		r.RunTo(w.pass)
		res := r.Finish()
		if _, err := encodeReport(res.Obs); !b.op(err, p.String()+": encode") {
			return 0, false
		}
	}
	return time.Since(t0).Seconds(), true
}

// checkPrefix runs w.check cycles of every point three ways and checks
// the outputs: a valid report, an identical result with idle-skip off,
// zero checked-mode violations, and on the default seed the recorded
// report digest.
func (b *bench) checkPrefix(w workload) {
	var reports [][]byte
	for _, p := range w.points {
		cfg, err := p.config(w.check, 0, b.simSeed)
		if !b.op(err, p.String()) {
			return
		}
		r, err := system.New(cfg)
		if !b.op(err, p.String()) {
			return
		}
		r.RunTo(w.check)
		res := r.Finish()
		b.op(res.Obs.Validate(), p.String()+": report")
		enc, err := encodeReport(res.Obs)
		b.op(err, p.String()+": encode")
		reports = append(reports, enc)

		if r, err = system.New(cfg); b.op(err, p.String()) {
			r.SetIdleSkip(false)
			r.RunTo(w.check)
			b.check(reflect.DeepEqual(r.Finish(), res), "%s: result differs with idle-skip off", p)
		}

		cfg.Checked = true
		if r, err = system.New(cfg); b.op(err, p.String()+": checked") {
			r.RunTo(w.check)
			got := r.Finish()
			b.check(got.Obs.Checked && len(got.Obs.Violations) == 0,
				"%s: checked mode reported %d violations", p, len(got.Obs.Violations))
		}
	}
	b.checkDigest(w.name, reports)
}

//go:embed digests.json
var digestsJSON []byte

// checkDigest compares the workload's report digest with the one
// recorded for the default seed. Other seeds print theirs only.
func (b *bench) checkDigest(workload string, reports [][]byte) {
	got := digest(reports)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d report digest %s\n", workload, b.seed, got)
	if b.seed != defaultSeed {
		return
	}
	var rec struct {
		Seed    int64             `json:"seed"`
		Digests map[string]string `json:"digests"`
	}
	if !b.op(json.Unmarshal(digestsJSON, &rec), "digests.json") {
		return
	}
	b.check(rec.Seed == defaultSeed && rec.Digests[workload] == got,
		"%s: report digest %s, recorded %q", workload, got, rec.Digests[workload])
}
