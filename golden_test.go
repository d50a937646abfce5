package aanoc

// Golden-report regression corpus: one pinned observability report per
// design under a fixed small configuration. Any change to simulation
// behaviour — or to the report schema — shows up as a byte diff against
// testdata/golden/. Refresh intentionally with
//
//	go test -run TestGoldenReports -update
//
// and review the diff like any other code change.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"aanoc/internal/appmodel"
	"aanoc/internal/dram"
	"aanoc/internal/memctrl"
	"aanoc/internal/obs"
	"aanoc/internal/system"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/ from the current simulator")

// goldenConfig is the pinned scenario. Cycles is a literal, not the
// AANOC_TEST_CYCLES knob: golden bytes must not depend on the
// environment.
func goldenConfig(d system.Design) system.Config {
	return system.Config{
		App: appmodel.BluRay(), Gen: dram.DDR2, Design: d,
		Cycles: 20_000, Seed: 0, PriorityDemand: true,
	}
}

var goldenSlugs = []struct {
	design system.Design
	slug   string
}{
	{system.Conv, "conv"},
	{system.ConvPFS, "convpfs"},
	{system.SDRAMAware, "ref4"},
	{system.SDRAMAwarePFS, "ref4pfs"},
	{system.GSS, "gss"},
	{system.GSSSAGM, "sagm"},
	{system.GSSSAGMSTI, "sti"},
}

func TestGoldenReports(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system golden runs")
	}
	for _, g := range goldenSlugs {
		g := g
		t.Run(g.slug, func(t *testing.T) {
			res, err := system.Run(goldenConfig(g.design))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := obs.EncodeJSON(&buf, res.Obs); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", g.slug+".json")
			if *updateGolden {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("report for %s diverged from %s (%d vs %d bytes); run with -update and review the diff",
					g.design, path, buf.Len(), len(want))
			}
			// The pinned bytes must stay parseable by the public decoder.
			if _, err := obs.DecodeJSON(want); err != nil {
				t.Errorf("golden report no longer parses: %v", err)
			}
		})
	}
}

// TestGoldenSchedulers pins one report per memory-scheduler zoo member
// under the same scenario as the per-design corpus: the scheduler name
// and decision-stat schema are part of the pinned bytes.
func TestGoldenSchedulers(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system golden runs")
	}
	for _, s := range memctrl.Schedulers() {
		if s == memctrl.SchedDefault {
			continue // pinned already by the per-design corpus
		}
		s := s
		t.Run(s.String(), func(t *testing.T) {
			cfg := goldenConfig(system.GSSSAGM)
			cfg.Scheduler = s
			res, err := system.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := obs.EncodeJSON(&buf, res.Obs); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", "sched-"+s.String()+".json")
			if *updateGolden {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("scheduler %s report diverged from %s (%d vs %d bytes); run with -update and review the diff",
					s, path, buf.Len(), len(want))
			}
			rep, err := obs.DecodeJSON(want)
			if err != nil {
				t.Fatalf("golden report no longer parses: %v", err)
			}
			if rep.Scheduler != s.String() {
				t.Errorf("pinned report names scheduler %q, want %q", rep.Scheduler, s)
			}
			if rep.Memory.Scheduler == nil {
				t.Error("pinned report lacks the scheduler decision stats")
			}
		})
	}
}

// TestGoldenMultiChannel pins the two-channel report: the scaled
// Blu-ray app on two SDRAM channels under GSS+SAGM, including the
// per-channel schema the multi-channel subsystem added.
func TestGoldenMultiChannel(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system golden run")
	}
	cfg := system.Config{
		App: appmodel.BluRay2(), Gen: dram.DDR2, Design: system.GSSSAGM,
		Channels: 2, Cycles: 20_000, Seed: 0, PriorityDemand: true,
	}
	res, err := system.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.EncodeJSON(&buf, res.Obs); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden", "chan2.json")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("two-channel report diverged from %s (%d vs %d bytes); run with -update and review the diff",
			path, buf.Len(), len(want))
	}
	rep, err := obs.DecodeJSON(want)
	if err != nil {
		t.Fatalf("golden report no longer parses: %v", err)
	}
	if len(rep.Memory.Channels) != 2 {
		t.Errorf("pinned report carries %d channel entries, want 2", len(rep.Memory.Channels))
	}
	// The imbalance ratio accompanies every channel breakdown — including
	// the near-balanced case the old omitempty tag could silently drop.
	if rep.Memory.Imbalance == nil {
		t.Error("pinned multi-channel report lacks the imbalance ratio")
	}
}
