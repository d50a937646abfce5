package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"aanoc"
	"aanoc/internal/obs"
	"aanoc/internal/serve"
	"aanoc/internal/sweep"
	"aanoc/internal/system"
)

// service is an in-process aanoc-serve on a fresh store, reached over
// loopback HTTP by one closed-loop client on a single connection.
type service struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

// serviceWorkers is the sweep worker pool: one per core of the 2-core
// reference machine.
const serviceWorkers = 2

func startService(storeDir string) (*service, error) {
	st, err := aanoc.OpenStore(storeDir, aanoc.StoreOptions{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{
		srv:    serve.New(serve.Options{Store: st, Workers: serviceWorkers}),
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the server and waits for its serve loop to return.
func (s *service) close() {
	s.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a stuck connection is closed by the timeout; nothing to report
	<-s.served
	s.client.CloseIdleConnections()
}

// sweepCall is one POST /v1/sweep followed by its NDJSON stream.
type sweepCall struct {
	post, stream time.Duration // POST round trip; stream open to done event
	done         serve.Event
}

func (s *service) sweep(points []serve.Point) (sweepCall, error) {
	var c sweepCall
	body, err := json.Marshal(serve.SweepRequest{Points: points})
	if err != nil {
		return c, err
	}
	t0 := time.Now()
	resp, err := s.client.Post(s.base+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return c, err
	}
	var acc serve.SweepAccepted
	err = decodeBody(resp, http.StatusAccepted, &acc)
	c.post = time.Since(t0)
	if err != nil {
		return c, fmt.Errorf("POST /v1/sweep: %w", err)
	}

	t1 := time.Now()
	resp, err = s.client.Get(s.base + "/v1/runs/" + acc.ID)
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c, fmt.Errorf("GET /v1/runs: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		var e serve.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return c, fmt.Errorf("stream: %w", err)
		}
		if e.Type == "done" {
			c.done = e
		}
	}
	c.stream = time.Since(t1)
	if err := sc.Err(); err != nil {
		return c, fmt.Errorf("stream: %w", err)
	}
	if c.done.Type != "done" {
		return c, errors.New("stream ended without a done event")
	}
	if c.done.Error != "" {
		return c, fmt.Errorf("sweep: %s", c.done.Error)
	}
	return c, nil
}

// result fetches one stored report by fingerprint and returns its bytes.
func (s *service) result(fp string) ([]byte, error) {
	resp, err := s.client.Get(s.base + "/v1/results/" + fp)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/results: status %d", resp.StatusCode)
	}
	return data, nil
}

func decodeBody(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, v)
}

// rows is a done event's per-point outcomes without their provenance
// flags, which legitimately differ between a simulated and a
// store-served pass.
func rows(e serve.Event) ([]byte, error) {
	rs := append([]serve.PointState(nil), e.Results...)
	for i := range rs {
		rs[i].Cached, rs[i].Stored = false, false
	}
	return json.Marshal(rs)
}

// coldSweeps is how many cold POSTs a run times, each on a fresh store
// and spread over the run like the simulation workloads' cold passes.
const coldSweeps = 6

// warmPerService is how many store-served re-POSTs each service
// answers: one percentile window per service. The count is fixed rather
// than filled to the clock
// because serve.Server keeps every run's event log, so a time-filled
// loop would make the retained state, and with it max_rss_mb, grow with
// the service's speed. The clock only spaces the requests out.
const warmPerService = p95Window

// serviceE2E is the untraced sweep-service run: cold POSTs of the grid,
// each on a freshly started service with an empty store, each followed
// by warmPerService store-served re-POSTs of the same grid, paced evenly
// over the run, with set-up blocks interleaved.
func (b *bench) serviceE2E(w workload, budget time.Duration) {
	wire := make([]serve.Point, len(w.points))
	for i, p := range w.points {
		wire[i] = p.wire(w.pass, b.simSeed)
	}
	dirs := 0
	fresh := func() (*service, string, error) {
		dirs++
		dir := filepath.Join(b.workdir, fmt.Sprintf("store-%d", dirs))
		s, err := startService(dir)
		return s, dir, err
	}
	setup := func() error {
		s, dir, err := fresh()
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		defer s.close()
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

	var (
		s                 *service
		coldRows          []byte
		fps               []string
		setupTimes, coldS []float64
		lat               []float64
		coldCPU, coldWall time.Duration
		simulated         int
	)
	defer func() {
		if s != nil {
			s.close()
		}
	}()
	start := time.Now()
	setups := schedule{start: start, interval: budget, n: w.setupBlocks}
	warms := schedule{start: start, interval: budget, n: coldSweeps * warmPerService}
	setupBlock := func() bool {
		t, err := b.setupBlock(w, setup)
		if !b.op(err, "set-up") {
			return false
		}
		setupTimes = append(setupTimes, t)
		setups.done++
		return true
	}
	// pace runs the set-up blocks that come due until the next warm
	// request is due.
	pace := func() bool {
		for {
			if setups.due() && !setupBlock() {
				return false
			}
			if warms.due() {
				return true
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < coldSweeps; i++ {
		if s != nil {
			s.close()
		}
		var err error
		if s, _, err = fresh(); !b.op(err, "start service") {
			return
		}
		t0, c0 := time.Now(), cpuTime()
		cold, err := s.sweep(wire)
		wall, cpu := time.Since(t0), cpuTime()-c0
		if !b.op(err, "cold sweep") {
			return
		}
		coldWall += wall
		coldCPU += cpu
		coldS = append(coldS, wall.Seconds())
		simulated += cold.done.Stats.Runs
		got, err := rows(cold.done)
		b.op(err, "encode rows")
		if i == 0 {
			b.checkOutcomes(w, cold.done)
			coldRows = got
			fps = fingerprints(cold.done)
			b.checkReports(w, s, fps)
		} else {
			b.check(bytes.Equal(got, coldRows), "cold sweep %d: rows differ from the first", i)
		}
		if !b.check(len(fps) > 0, "cold sweep returned no fingerprints") {
			return
		}

		for k := 0; k < warmPerService; k++ {
			if !pace() {
				return
			}
			if !b.check(time.Since(start) < 3*budget, "only %d warm requests in %v", len(lat), 3*budget) {
				return
			}
			n := warms.done
			warms.done++
			t0 := time.Now()
			warm, err := s.sweep(wire)
			d := time.Since(t0)
			if !b.op(err, "warm sweep") {
				continue
			}
			lat = append(lat, ms(d))
			got, _ := rows(warm.done)
			b.check(bytes.Equal(got, coldRows), "warm sweep %d: rows differ from the cold rows", n)
			b.check(warm.done.Stats.Runs == 0, "warm sweep %d simulated %d points", n, warm.done.Stats.Runs)
			_, err = s.result(fps[n%len(fps)])
			b.op(err, "warm result")
		}
	}
	for setups.done < setups.n {
		if !setupBlock() {
			return
		}
	}
	cycles := float64(simulated) * float64(w.pass)
	b.metrics["setup_s"] = median(setupTimes)
	b.samples["setup"] = w.setupBlocks * w.setupPerBlock
	b.metrics["cold_sweep_s"] = median(coldS)
	b.samples["cold"] = len(coldS)
	b.metrics["sim_cycles_per_s"] = cycles / coldWall.Seconds()
	b.metrics["cpu_ns_per_cycle"] = float64(coldCPU) / cycles
	b.metrics["warm_p50_ms"] = windowed(lat, 0.5)
	b.metrics["warm_p95_ms"] = windowed(lat, 0.95)
	b.samples["warm"] = len(lat)
}

// checkReports fetches every stored report of a cold pass, validates
// it, and on the default seed checks the digest of them all.
func (b *bench) checkReports(w workload, s *service, fps []string) {
	var reports [][]byte
	for _, fp := range fps {
		data, err := s.result(fp)
		if !b.op(err, "result "+fp) {
			continue
		}
		rep, err := obs.DecodeJSON(data)
		if b.op(err, "decode result "+fp) {
			b.op(rep.Validate(), "report "+fp)
		}
		reports = append(reports, data)
	}
	b.checkDigest(w.name, reports)
}

// checkOutcomes counts every point of a cold pass as an operation and
// checks that the service keyed each point as the harness does.
func (b *bench) checkOutcomes(w workload, done serve.Event) {
	b.check(len(done.Results) == len(w.points), "done event has %d results for %d points", len(done.Results), len(w.points))
	for i, r := range done.Results {
		if !b.check(r.Error == "", "point %d: %s", i, r.Error) || i >= len(w.points) {
			continue
		}
		cfg, err := w.points[i].config(w.pass, 0, b.simSeed)
		if b.op(err, w.points[i].String()) {
			fp, _ := sweep.Fingerprint(cfg)
			b.check(fp == r.Fingerprint, "point %d (%s): service fingerprint differs", i, w.points[i])
		}
	}
}

// fingerprints lists a done event's distinct fingerprints in grid order.
func fingerprints(done serve.Event) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range done.Results {
		if r.Fingerprint != "" && !seen[r.Fingerprint] {
			seen[r.Fingerprint] = true
			out = append(out, r.Fingerprint)
		}
	}
	return out
}
