package core

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/kernel"
	"repro/internal/sched"
	"repro/internal/testkit"
)

func TestCalibrationRoundTrip(t *testing.T) {
	p := initPipeline(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "cal.json")
	if err := p.SaveCalibration(path); err != nil {
		t.Fatal(err)
	}

	q := MustNew(testkit.Config())
	if err := q.LoadCalibration(path, testkit.Universe()); err != nil {
		t.Fatal(err)
	}
	// Classification and matrix must be identical.
	for name, cls := range p.Classes() {
		if q.Classes()[name] != cls {
			t.Fatalf("class of %s changed across round trip", name)
		}
	}
	for a := range p.Matrix().Slowdown {
		for b := range p.Matrix().Slowdown[a] {
			if p.Matrix().Slowdown[a][b] != q.Matrix().Slowdown[a][b] {
				t.Fatalf("matrix cell [%d][%d] changed", a, b)
			}
		}
	}
	// The restored pipeline must be runnable without Init.
	queue, err := q.Queue([]string{"miniM", "miniA"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := q.Run(queue, 2, sched.ILP)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Throughput() <= 0 {
		t.Fatal("restored pipeline produced no throughput")
	}
}

func TestLoadCalibrationValidation(t *testing.T) {
	p := initPipeline(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "cal.json")
	if err := p.SaveCalibration(path); err != nil {
		t.Fatal(err)
	}

	q := MustNew(testkit.Config())
	// Universe mismatch: fewer apps.
	if err := q.LoadCalibration(path, testkit.Universe()[:2]); err == nil {
		t.Error("short universe accepted")
	}
	// Universe mismatch: renamed app.
	apps := testkit.Universe()
	apps[0].Name = "other"
	if err := q.LoadCalibration(path, apps); err == nil {
		t.Error("renamed universe accepted")
	}
	// Missing file.
	if err := q.LoadCalibration(filepath.Join(dir, "nope.json"), testkit.Universe()); err == nil {
		t.Error("missing file accepted")
	}
	// Corrupt file.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := q.LoadCalibration(bad, testkit.Universe()); err == nil {
		t.Error("corrupt file accepted")
	}
}

func TestCalibrationCachePathKeyedByDevice(t *testing.T) {
	tmp := os.TempDir()
	for _, tc := range []struct {
		env, device, want string
	}{
		{"off", "GTX480-60SM", ""},
		{"off", "Small-8SM", ""},
		{"", "GTX480-60SM", filepath.Join(tmp, "repro-calibration-GTX480-60SM.json")},
		{"", "Small-8SM", filepath.Join(tmp, "repro-calibration-Small-8SM.json")},
		{"/data/cal.json", "GTX480-60SM", "/data/cal-GTX480-60SM.json"},
		{"/data/cal.json", "Small-8SM", "/data/cal-Small-8SM.json"},
		{"/data.d/cal", "GTX480-60SM", "/data.d/cal-GTX480-60SM"},
		{"cal.v1.json", "Small-8SM", "cal.v1-Small-8SM.json"},
	} {
		t.Setenv("REPRO_CALIBRATION", tc.env)
		if got := CalibrationCachePath(tc.device); got != tc.want {
			t.Errorf("REPRO_CALIBRATION=%q, device %s: path %q, want %q", tc.env, tc.device, got, tc.want)
		}
	}
}

func TestSaveCalibrationRequiresInit(t *testing.T) {
	p := MustNew(testkit.Config())
	if err := p.SaveCalibration(filepath.Join(t.TempDir(), "x.json")); err == nil {
		t.Fatal("uninitialized save accepted")
	}
	var none []kernel.Params
	_ = none
}
