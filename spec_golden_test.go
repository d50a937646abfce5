package aanoc

// Golden spec corpus: the five builtin application models committed as
// scenario spec files under testdata/specs/, pinned two ways — the spec
// files themselves are byte-stable (regenerate with -update), and
// running a spec through the facade produces reports byte-identical to
// running the builtin model it mirrors, on every design. Together these
// prove the declarative spec layer is a lossless re-expression of the
// hard-coded models, not a parallel implementation that can drift.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"aanoc/internal/appmodel"
	"aanoc/internal/obs"
	"aanoc/internal/scenario"
)

// specApps maps each builtin model to its committed spec file.
var specApps = []string{"bluray", "sdtv", "ddtv", "bluray2", "ddtv4"}

func specPath(name string) string {
	return filepath.Join("testdata", "specs", name+".json")
}

// TestSpecFilesPinned keeps testdata/specs/ in lockstep with the
// builtin models: FromApp must serialise to exactly the committed
// bytes, and the committed bytes must parse back to the exact model.
func TestSpecFilesPinned(t *testing.T) {
	for _, name := range specApps {
		name := name
		t.Run(name, func(t *testing.T) {
			app, err := appmodel.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := scenario.FromApp(app).WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			path := specPath(name)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing spec file (run with -update to create): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("spec for %s diverged from %s; run with -update and review the diff", name, path)
			}
			sp, err := LoadSpec(path)
			if err != nil {
				t.Fatal(err)
			}
			back, err := sp.App()
			if err != nil {
				t.Fatal(err)
			}
			if err := back.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSpecReportsByteIdentical runs each committed spec and its builtin
// model through the facade under identical run parameters and demands
// byte-identical observability reports on every design.
func TestSpecReportsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system runs across all designs")
	}
	for _, name := range specApps {
		name := name
		t.Run(name, func(t *testing.T) {
			sp, err := LoadSpec(specPath(name))
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range Designs() {
				modelCfg := Config{Model: App(name), Design: d, Cycles: 10_000, PriorityDemand: true}
				specCfg := Config{Spec: sp, Design: d, Cycles: 10_000, PriorityDemand: true}
				mres, err := Run(modelCfg)
				if err != nil {
					t.Fatalf("%s model: %v", d, err)
				}
				sres, err := Run(specCfg)
				if err != nil {
					t.Fatalf("%s spec: %v", d, err)
				}
				var mbuf, sbuf bytes.Buffer
				if err := obs.EncodeJSON(&mbuf, mres.Obs); err != nil {
					t.Fatal(err)
				}
				if err := obs.EncodeJSON(&sbuf, sres.Obs); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(mbuf.Bytes(), sbuf.Bytes()) {
					t.Errorf("%s: spec-driven report differs from the model-driven report (%d vs %d bytes)",
						d, sbuf.Len(), mbuf.Len())
				}
			}
		})
	}
}
