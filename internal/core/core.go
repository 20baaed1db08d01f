// Package core is the library façade: it wires the full methodology of
// the paper into one Pipeline —
//
//  1. profile every application solo (Section 3.2.1),
//  2. calibrate thresholds and classify (Table 3.1/3.2),
//  3. measure per-class interference from all-pairs co-runs
//     (Section 3.2.2, Figure 3.4),
//  4. match queued applications into co-run groups with the ILP
//     (Section 3.2.3), and
//  5. execute with run-time SM reallocation (Section 3.2.4).
//
// Downstream code (examples, cmd tools, the experiment harness) should
// only need this package plus the workload definitions.
package core

import (
	"fmt"

	"repro/internal/classify"
	"repro/internal/config"
	"repro/internal/interference"
	"repro/internal/kernel"
	"repro/internal/profile"
	"repro/internal/sched"
)

// Pipeline holds the calibrated state of the methodology for one device
// configuration and one application universe. Build it once with New and
// Init; every later query (classification tables, matchings, queue runs)
// reuses the memoized profiles and interference matrix.
type Pipeline struct {
	cfg        config.GPUConfig
	prof       *profile.Profiler
	apps       []kernel.Params
	profiles   []profile.Result
	thresholds classify.Thresholds
	classes    map[string]classify.Class
	matrix     *interference.Matrix
	scheduler  *sched.Scheduler
	ready      bool
}

// New creates an uninitialized pipeline for the device configuration.
func New(cfg config.GPUConfig) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Pipeline{cfg: cfg, prof: profile.New(cfg)}, nil
}

// MustNew is New panicking on error.
func MustNew(cfg config.GPUConfig) *Pipeline {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Init profiles, classifies and measures interference for the given
// application universe. It is the expensive step: one solo simulation
// per application plus one co-run per pair, all on one pool of
// runtime.NumCPU() workers; classification and the class matrix fold
// the finished campaign.
func (p *Pipeline) Init(apps []kernel.Params) error {
	if len(apps) == 0 {
		return fmt.Errorf("core: empty application universe")
	}
	p.apps = apps
	camp, err := interference.RunCampaign(p.cfg, p.prof, apps)
	if err != nil {
		return err
	}
	p.profiles = camp.Solo
	p.thresholds = classify.CalibrateThresholds(p.cfg, p.profiles)
	p.classes = make(map[string]classify.Class, len(apps))
	for _, c := range classify.Table(p.thresholds, p.profiles) {
		p.classes[c.Name] = c.Class
	}
	p.matrix = camp.Fold(p.classes)
	p.scheduler = sched.New(p.cfg, p.prof, p.matrix)
	p.ready = true
	return nil
}

// Config returns the device configuration.
func (p *Pipeline) Config() config.GPUConfig { return p.cfg }

// Profiler exposes the memoized profiler (scalability figures).
func (p *Pipeline) Profiler() *profile.Profiler { return p.prof }

// Apps returns the application universe.
func (p *Pipeline) Apps() []kernel.Params { return p.apps }

// Profiles returns the solo profiles in universe order.
func (p *Pipeline) Profiles() []profile.Result { return p.profiles }

// Thresholds returns the calibrated classification thresholds.
func (p *Pipeline) Thresholds() classify.Thresholds { return p.thresholds }

// Classes maps application names to classes.
func (p *Pipeline) Classes() map[string]classify.Class { return p.classes }

// ClassOf returns one application's class.
func (p *Pipeline) ClassOf(name string) (classify.Class, error) {
	c, ok := p.classes[name]
	if !ok {
		return 0, fmt.Errorf("core: %q not in the initialized universe", name)
	}
	return c, nil
}

// Matrix returns the per-class interference matrix.
func (p *Pipeline) Matrix() *interference.Matrix { return p.matrix }

// Scheduler returns the policy runner.
func (p *Pipeline) Scheduler() *sched.Scheduler { return p.scheduler }

// Classification returns the Table 3.2 reproduction rows.
func (p *Pipeline) Classification() []classify.Classification {
	return classify.Table(p.thresholds, p.profiles)
}

// Queue materializes a waiting queue from application names (arrival
// order = slice order).
func (p *Pipeline) Queue(names []string) ([]sched.QueuedApp, error) {
	if !p.ready {
		return nil, fmt.Errorf("core: pipeline not initialized")
	}
	byName := make(map[string]kernel.Params, len(p.apps))
	for _, a := range p.apps {
		byName[a.Name] = a
	}
	out := make([]sched.QueuedApp, 0, len(names))
	for i, n := range names {
		params, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("core: unknown application %q", n)
		}
		out = append(out, sched.QueuedApp{Params: params, Class: p.classes[n], Arrival: i})
	}
	return out, nil
}

// Run executes a queue under a policy with co-run groups of nc.
func (p *Pipeline) Run(queue []sched.QueuedApp, nc int, policy sched.Policy) (sched.Report, error) {
	if !p.ready {
		return sched.Report{}, fmt.Errorf("core: pipeline not initialized")
	}
	return p.scheduler.Run(queue, nc, policy)
}
