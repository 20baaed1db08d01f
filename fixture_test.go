package repro

import (
	"path/filepath"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/interference"
	"repro/internal/kernel"
	"repro/internal/profile"
	"repro/internal/workloads"
)

// TestGTX480FixtureDrift guards the committed GTX480 calibration
// (bench/testdata/calibration-GTX480-60SM.json) against drift from the
// simulator. It re-simulates a sample of the fixture, the solo
// profiles of the two shortest applications and their even-split
// pair, and requires each to equal the fixture's entry exactly. The
// fixture is only read.
func TestGTX480FixtureDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("re-simulates two GTX480 solo profiles and one pair")
	}
	cfg := config.GTX480()
	apps := workloads.All()
	fixture := core.MustNew(cfg)
	path := filepath.Join("bench", "testdata", "calibration-GTX480-60SM.json")
	if err := fixture.LoadCalibration(path, apps); err != nil {
		t.Fatal(err)
	}
	var sample []kernel.Params
	for _, a := range apps {
		if a.Name == "JPEG" || a.Name == "NN" {
			sample = append(sample, a)
		}
	}
	camp, err := interference.RunCampaign(cfg, profile.New(cfg), sample)
	if err != nil {
		t.Fatal(err)
	}
	solo := make(map[string]profile.Result)
	for _, r := range fixture.Profiles() {
		solo[r.Name] = r
	}
	for _, got := range camp.Solo {
		if want := solo[got.Name]; got != want {
			t.Errorf("solo profile %s drifted from the fixture:\nfixture: %+v\nnow:     %+v", got.Name, want, got)
		}
	}
	got := camp.Fold(fixture.Classes()).Pairs[0]
	for _, want := range fixture.Matrix().Pairs {
		if want.A == got.A && want.B == got.B {
			if got != want {
				t.Errorf("pair %s+%s drifted from the fixture:\nfixture: %+v\nnow:     %+v", got.A, got.B, want, got)
			}
			return
		}
	}
	t.Errorf("fixture has no pair %s+%s", got.A, got.B)
}
