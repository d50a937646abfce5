// Command perfbench is the repository benchmark: it runs one named
// workload against the simulator's packages, checks the outputs, and
// prints every metric by name with its unit. perfbench/run.py builds
// and launches it; see perfbench/README.md for the workloads, metrics
// and the A/B comparator.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: saturated, standby or sweep-service")
		seed    = flag.Int64("seed", defaultSeed, "workload seed")
		seconds = flag.Int("seconds", 0, "measured seconds of an untraced run (required)")
		traceOn = flag.Int("trace", 0, "1 runs the traced (per-layer) variant")
		workdir = flag.String("workdir", "", "scratch directory for result stores (removed on exit)")
		commit  = flag.String("commit", "unknown", "source revision recorded in the run record")
		record  = flag.String("record", "", "append the self-describing run record to this JSONL file")
	)
	flag.Parse()
	os.Exit(run(*name, *seed, *seconds, *traceOn == 1, *workdir, *commit, *record))
}

// specPath is the benchmark definition naming the metrics and their
// units, read from the root of the checkout the harness runs in.
const specPath = "BENCHMARK.json"

func run(name string, seed int64, seconds int, traced bool, workdir, commit, recordPath string) int {
	want, err := loadSpec(specPath, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	w, ok := workloads[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", name)
		return 2
	}
	if seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds is required and must be at least 1")
		return 2
	}
	if workdir == "" {
		workdir, err = os.MkdirTemp("", "perfbench-")
	} else {
		err = os.MkdirAll(workdir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(workdir)

	b := &bench{seed: seed, simSeed: simSeed(seed), workdir: workdir, metrics: map[string]float64{}, samples: map[string]int{}}
	start := time.Now()
	switch {
	case traced:
		b.traced(w)
	case w.service:
		b.serviceE2E(w, time.Duration(seconds)*time.Second)
	default:
		b.simE2E(w, time.Duration(seconds)*time.Second)
	}
	if !traced {
		var ru syscall.Rusage
		if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
			b.metrics["max_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}

	// Every metric the definition names must have been measured, and
	// nothing else is reported.
	out := map[string]metricValue{}
	for _, m := range want {
		v, ok := b.metrics[m.Name]
		if !b.check(ok && !math.IsNaN(v) && !math.IsInf(v, 0), "metric %s was not measured", m.Name) {
			v = 0
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}

	rec := runRecord{
		Workload: name, Seed: seed, Seconds: seconds, Trace: traced,
		Commit: commit, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPUModel: cpuModel(),
		Start: start.UTC().Format(time.RFC3339), WallS: time.Since(start).Seconds(),
		Samples: b.samples, Failures: b.failures,
		result: result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: out},
	}
	rec.FailedFrac = float64(b.failed) / float64(max(b.attempted, 1))
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %16.6g %s\n", n, out[n].Value, out[n].Unit)
	}
	fmt.Printf("%-34s %16.6g %s (%d of %d operations)\n", "failed_frac", rec.FailedFrac, "ratio", b.failed, b.attempted)
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if recordPath != "" {
		if err := appendLine(recordPath, line); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
	}
	last, _ := json.Marshal(rec.result)
	fmt.Println(string(last))
	if b.failed > 0 {
		return 1
	}
	return 0
}

// defaultSeed is the seed whose report digests are recorded in
// digests.json. Seeds from 1000 up are held back for claims (README).
const defaultSeed = 1

// simSeed derives the simulator seed from the workload seed
// (splitmix64; never zero, since zero selects the simulator's default).
func simSeed(seed int64) uint64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return (z ^ z>>31) | 1
}

// bench accumulates one run's metrics and its operation tally.
type bench struct {
	seed      int64
	simSeed   uint64
	workdir   string
	metrics   map[string]float64
	samples   map[string]int // sample count behind each percentile metric
	attempted int
	failed    int
	failures  []string
}

// check counts one operation and records it as failed unless ok.
func (b *bench) check(ok bool, format string, args ...any) bool {
	b.attempted++
	if !ok {
		b.failed++
		msg := fmt.Sprintf(format, args...)
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", msg)
		if len(b.failures) < 20 {
			b.failures = append(b.failures, msg)
		}
	}
	return ok
}

// op counts one operation that failed if err is non-nil.
func (b *bench) op(err error, what string) bool {
	if err != nil {
		return b.check(false, "%s: %v", what, err)
	}
	return b.check(true, "")
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is the self-describing record of one run: the result plus
// everything needed to tell two runs' conditions apart.
type runRecord struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      bool           `json:"trace"`
	Commit     string         `json:"commit"`
	GoVersion  string         `json:"goVersion"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	CPUModel   string         `json:"cpuModel"`
	Start      string         `json:"start"`
	WallS      float64        `json:"wallS"`
	Samples    map[string]int `json:"samples,omitempty"`
	FailedFrac float64        `json:"failedFrac"`
	Failures   []string       `json:"failures,omitempty"`
	result
}

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadSpec reads the metric list a run must print: the end-to-end
// metrics, or the per-layer ones for a traced run.
func loadSpec(path string, traced bool) ([]specMetric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if traced {
		return spec.PerLayer, nil
	}
	return spec.EndToEnd, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
