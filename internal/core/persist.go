package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/classify"
	"repro/internal/config"
	"repro/internal/interference"
	"repro/internal/kernel"
	"repro/internal/profile"
	"repro/internal/sched"
)

// calibrationFileVersion guards the on-disk format.
const calibrationFileVersion = 1

// CalibrationCachePath resolves where a device's calibration cache
// lives, honoring the REPRO_CALIBRATION environment variable: "off"
// disables caching (empty return), an explicit path is keyed by device
// by inserting "-<device>" before its extension (so "cal.json" becomes
// "cal-GTX480-60SM.json" and a mixed roster keeps one file per device
// type), and by default the cache sits in the OS temp directory keyed by
// device name. cmd/experiments and cmd/fleet share this resolution so
// one calibration serves both.
func CalibrationCachePath(device string) string {
	switch v := os.Getenv("REPRO_CALIBRATION"); v {
	case "off":
		return ""
	case "":
		return filepath.Join(os.TempDir(), "repro-calibration-"+device+".json")
	default:
		ext := filepath.Ext(v)
		return strings.TrimSuffix(v, ext) + "-" + device + ext
	}
}

// LoadOrInit returns an initialized pipeline for cfg over apps: it
// restores the disk-cached calibration when one matches (same device
// name, same workload fingerprint) and otherwise runs the expensive
// Init — solo profiles plus the all-pairs interference campaign — and
// saves the result best-effort. REPRO_CALIBRATION governs the cache
// location, one file per device name ("off" disables it).
// cmd/experiments, cmd/fleet and heterogeneous fleet rosters all share
// this path, so one calibration per device name serves them all.
func LoadOrInit(cfg config.GPUConfig, apps []kernel.Params) (*Pipeline, error) {
	p, err := New(cfg)
	if err != nil {
		return nil, err
	}
	path := CalibrationCachePath(cfg.Name)
	if path != "" && p.LoadCalibration(path, apps) == nil {
		return p, nil
	}
	if err := p.Init(apps); err != nil {
		return nil, err
	}
	if path != "" {
		// Best-effort: a read-only filesystem only costs the cache.
		_ = p.SaveCalibration(path)
	}
	return p, nil
}

// Fingerprint summarizes an application universe (names and every
// parameter) so cached calibrations are invalidated when workloads are
// retuned. The rendering of kernel.Params is stable for a fixed struct
// definition, which is exactly the invalidation granularity wanted.
func Fingerprint(apps []kernel.Params) string {
	h := uint64(1469598103934665603) // FNV-64 offset basis
	for _, a := range apps {
		for _, b := range []byte(fmt.Sprintf("%+v|", a)) {
			h ^= uint64(b)
			h *= 1099511628211
		}
	}
	return fmt.Sprintf("%016x", h)
}

// calibrationFile is the serialized form of an initialized pipeline's
// expensive state: solo profiles, thresholds, classes and the
// interference matrix. Kernels themselves are not stored — the caller
// re-supplies the application universe and the file is validated
// against it.
type calibrationFile struct {
	Version     int                 `json:"version"`
	Device      string              `json:"device"`
	Fingerprint string              `json:"fingerprint"`
	Apps        []string            `json:"apps"`
	Profiles    []profile.Result    `json:"profiles"`
	Thresholds  classify.Thresholds `json:"thresholds"`
	Classes     map[string]string   `json:"classes"`
	Matrix      serializedMatrix    `json:"matrix"`
}

type serializedMatrix struct {
	Slowdown [classify.NumClasses][classify.NumClasses]float64 `json:"slowdown"`
	Samples  [classify.NumClasses][classify.NumClasses]int     `json:"samples"`
	Pairs    []interference.PairResult                         `json:"pairs"`
}

// SaveCalibration writes the pipeline's calibrated state to path. The
// pipeline must be initialized.
func (p *Pipeline) SaveCalibration(path string) error {
	if !p.ready {
		return fmt.Errorf("core: pipeline not initialized")
	}
	f := calibrationFile{
		Version:     calibrationFileVersion,
		Device:      p.cfg.Name,
		Fingerprint: Fingerprint(p.apps),
		Thresholds:  p.thresholds,
		Profiles:    p.profiles,
		Classes:     make(map[string]string, len(p.classes)),
		Matrix: serializedMatrix{
			Slowdown: p.matrix.Slowdown,
			Samples:  p.matrix.Samples,
			Pairs:    p.matrix.Pairs,
		},
	}
	for _, a := range p.apps {
		f.Apps = append(f.Apps, a.Name)
	}
	for name, cls := range p.classes {
		f.Classes[name] = cls.String()
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("core: encode calibration: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("core: write calibration: %w", err)
	}
	return nil
}

// LoadCalibration restores a previously saved calibration for the given
// application universe, skipping the profiling and all-pairs campaign.
// The file must have been produced for the same device name and the
// same set of application names; otherwise an error describes the
// mismatch and the caller should fall back to Init.
func (p *Pipeline) LoadCalibration(path string, apps []kernel.Params) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("core: read calibration: %w", err)
	}
	var f calibrationFile
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("core: decode calibration: %w", err)
	}
	if f.Version != calibrationFileVersion {
		return fmt.Errorf("core: calibration version %d, want %d", f.Version, calibrationFileVersion)
	}
	if f.Device != p.cfg.Name {
		return fmt.Errorf("core: calibration for device %q, this pipeline is %q", f.Device, p.cfg.Name)
	}
	if fp := Fingerprint(apps); f.Fingerprint != fp {
		return fmt.Errorf("core: calibration fingerprint %s does not match universe %s (workloads changed)", f.Fingerprint, fp)
	}
	if len(f.Apps) != len(apps) {
		return fmt.Errorf("core: calibration covers %d apps, universe has %d", len(f.Apps), len(apps))
	}
	for i, a := range apps {
		if f.Apps[i] != a.Name {
			return fmt.Errorf("core: calibration app %d is %q, universe has %q", i, f.Apps[i], a.Name)
		}
	}
	if len(f.Profiles) != len(apps) {
		return fmt.Errorf("core: calibration has %d profiles for %d apps", len(f.Profiles), len(apps))
	}
	// Iterate class names sorted so a file with several bad labels
	// reports the same one on every run.
	names := make([]string, 0, len(f.Classes))
	for name := range f.Classes {
		names = append(names, name)
	}
	sort.Strings(names)
	classes := make(map[string]classify.Class, len(f.Classes))
	for _, name := range names {
		cls, err := classify.ParseClass(f.Classes[name])
		if err != nil {
			return fmt.Errorf("core: calibration class for %s: %w", name, err)
		}
		classes[name] = cls
	}
	for _, a := range apps {
		if _, ok := classes[a.Name]; !ok {
			return fmt.Errorf("core: calibration missing class for %s", a.Name)
		}
	}
	p.apps = apps
	p.profiles = f.Profiles
	p.thresholds = f.Thresholds
	p.classes = classes
	// Seed the profiler memo so schedulers that consult solo profiles
	// (duration-aware grouping, serial reuse) skip re-simulation.
	for _, r := range f.Profiles {
		p.prof.Prime(r.Name, r)
	}
	p.matrix = &interference.Matrix{
		Slowdown: f.Matrix.Slowdown,
		Samples:  f.Matrix.Samples,
		Pairs:    f.Matrix.Pairs,
	}
	p.scheduler = sched.New(p.cfg, p.prof, p.matrix)
	p.ready = true
	return nil
}
