package fleet

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/sched"
)

// DeviceSpec is one roster entry: Count identical devices of the type
// calibrated by Pipe. The pipeline carries everything placement needs —
// device configuration, solo profiles, classes and the interference
// matrix measured on that hardware generation.
type DeviceSpec struct {
	Pipe  *core.Pipeline
	Count int
}

// Config parameterizes the fleet.
type Config struct {
	// Devices is the fleet roster. Each entry contributes Count devices
	// of one calibrated device type; a single entry is the homogeneous
	// fleet of earlier revisions.
	Devices []DeviceSpec
	// NC is the co-run group size (applications per device). Serial
	// policy forces 1.
	NC int
	// Policy selects how the dispatcher forms groups: Serial and FCFS
	// ignore the interference matrix; ILP and ILPSMRA use the paper's
	// matcher on the live queue.
	Policy sched.Policy
	// Window bounds how much of the queue prefix the windowed ILP
	// considers. 0 selects the adaptive window: sized from the live
	// queue depth and its class mix at every dispatch (see windowFor),
	// between MinWindow and MaxWindow. A nonzero value pins it, at most
	// MaxWindow.
	Window int
	// GreedyBelow is the queue depth under which ILP policies fall back
	// to greedy group formation (0 selects 2*NC). The windowed ILP only
	// pays off once the queue offers real choice.
	GreedyBelow int
	// Aging weights pattern efficiency by member wait time in the ILP
	// and greedy scorers: a candidate's (or pattern's) efficiency is
	// multiplied by 1 + Aging*w, where w is the member's wait normalized
	// to the longest wait in the window. 0 disables aging and scores by
	// raw packing efficiency alone; around 1, a job that has waited the
	// longest doubles its patterns' appeal — tail latency is optimized
	// rather than pure throughput.
	Aging float64
	// SLO configures class-aware dispatch and preemption; the zero value
	// disables both.
	SLO SLOConfig
	// Engine selects the completion engine: Cycle (the default)
	// simulates every dispatched group cycle-accurately, Modeled
	// computes completions analytically from solo profiles and the
	// interference matrix with zero simulations, and Hybrid simulates
	// the first HybridWarm occurrences of each (device type, group
	// composition) to calibrate the model and serves the rest from it.
	Engine EngineMode
	// HybridWarm is how many occurrences of each (device type,
	// composition) the Hybrid engine runs cycle-accurately before
	// switching to the calibrated model (0 selects DefaultHybridWarm;
	// ignored outside Hybrid).
	HybridWarm int
	// SampleEvery enables the per-interval time-series collector: every
	// SampleEvery fleet cycles the event loop samples queue depth,
	// per-device occupancy and the cumulative counters into
	// Result.Series (see internal/obs). 0 — the default — disables
	// sampling entirely; the collector is purely an observer and never
	// changes dispatch decisions or event order.
	SampleEvery uint64
	// Closed switches the run to closed-loop traffic: client pools that
	// submit, wait (with timeout, retry and backoff) and think, instead
	// of an open arrival stream. Enabled runs pass no arrivals to Run.
	Closed ClosedConfig
	// Admission gates every submission on the predicted queueing wait,
	// rejecting or degrading over-bound ones (see AdmissionConfig).
	Admission AdmissionConfig
	// Autoscale grows and shrinks the active roster on queue-pressure
	// watermarks with a provisioning delay (see AutoscaleConfig).
	Autoscale AutoscaleConfig
	// Chaos injects deterministic device failures, drains and restores
	// mid-run, from an explicit trace or an MTBF/MTTR generator (see
	// ChaosConfig, chaos.go).
	Chaos ChaosConfig

	// forceSpec makes the event loop pre-simulate likely next groups
	// even on a single-CPU host, where speculation otherwise only burns
	// cycles. Tests use it to exercise the speculative path; results
	// are identical either way.
	forceSpec bool
}

// The adaptive window's operating range: windowFor sizes the window
// between these from backlog depth and class-mix entropy. MinWindow
// keeps the matcher fed with a representative class mix even at
// shallow queues; MaxWindow keeps dispatch cheap at deep ones. MaxWindow
// also caps a pinned Config.Window, and with it the largest composition
// a dispatcher's pick table grows to cover.
const (
	MinWindow = 8
	MaxWindow = 32
)

// withDefaults resolves zero fields. Window deliberately stays 0 when
// unset: that selects per-dispatch adaptive sizing (windowFor).
func (c Config) withDefaults() Config {
	if c.Policy == sched.Serial {
		c.NC = 1
	}
	if c.GreedyBelow == 0 {
		c.GreedyBelow = 2 * c.NC
	}
	if c.Engine == Hybrid && c.HybridWarm == 0 {
		c.HybridWarm = DefaultHybridWarm
	}
	if c.Closed.Enabled {
		if c.Closed.Requests == 0 {
			c.Closed.Requests = DefaultClosedRequests
		}
		if c.Closed.LatencyFrac > 0 && c.Closed.Deadline == 0 {
			c.Closed.Deadline = DefaultDeadline
		}
		if c.Closed.Retries > 0 && c.Closed.Backoff == 0 {
			c.Closed.Backoff = DefaultBackoff
		}
	}
	if c.Autoscale.Enabled {
		if c.Autoscale.Min == 0 {
			c.Autoscale.Min = 1
		}
		if c.Autoscale.Max == 0 {
			c.Autoscale.Max = c.TotalDevices()
		}
		if c.Autoscale.High == 0 {
			c.Autoscale.High = DefaultScaleHigh
		}
		if c.Autoscale.Low == 0 {
			c.Autoscale.Low = DefaultScaleLow
		}
		if c.Autoscale.Delay == 0 {
			c.Autoscale.Delay = DefaultProvisionDelay
		}
		if c.Autoscale.Epoch == 0 {
			c.Autoscale.Epoch = DefaultScaleEpoch
		}
	}
	c.Chaos = c.Chaos.withDefaults()
	return c
}

// TotalDevices sums the roster counts.
func (c Config) TotalDevices() int {
	n := 0
	for _, s := range c.Devices {
		n += s.Count
	}
	return n
}

// RosterString renders the roster as the CLI spells it, e.g.
// "2xGTX480-60SM,2xSmall-8SM".
func (c Config) RosterString() string {
	parts := make([]string, len(c.Devices))
	for i, s := range c.Devices {
		name := "?"
		if s.Pipe != nil {
			name = s.Pipe.Config().Name
		}
		parts[i] = fmt.Sprintf("%dx%s", s.Count, name)
	}
	return strings.Join(parts, ",")
}

// validate rejects impossible configurations.
func (c Config) validate() error {
	if len(c.Devices) == 0 || c.TotalDevices() < 1 {
		return fmt.Errorf("fleet: need at least one device in the roster")
	}
	for i, s := range c.Devices {
		if s.Count < 1 {
			return fmt.Errorf("fleet: roster entry %d has count %d", i, s.Count)
		}
		if s.Pipe == nil || s.Pipe.Scheduler() == nil {
			return fmt.Errorf("fleet: roster entry %d has an uninitialized pipeline", i)
		}
	}
	if c.NC < 1 {
		return fmt.Errorf("fleet: group size %d", c.NC)
	}
	if c.Window < 0 || c.Window > MaxWindow {
		return fmt.Errorf("fleet: ILP window %d outside [0, %d] (MaxWindow)", c.Window, MaxWindow)
	}
	if c.GreedyBelow < 1 {
		return fmt.Errorf("fleet: greedy threshold %d", c.GreedyBelow)
	}
	if c.Aging < 0 {
		return fmt.Errorf("fleet: aging weight %g must not be negative", c.Aging)
	}
	if err := c.SLO.validate(); err != nil {
		return err
	}
	switch c.Policy {
	case sched.Serial, sched.FCFS, sched.ProfileBased, sched.ILP, sched.ILPSMRA:
	default:
		return fmt.Errorf("fleet: unknown policy %v", c.Policy)
	}
	if c.Policy == sched.ILP || c.Policy == sched.ILPSMRA {
		for i, s := range c.Devices {
			if s.Pipe.Matrix() == nil {
				return fmt.Errorf("fleet: %v policy requires an interference matrix (roster entry %d)", c.Policy, i)
			}
		}
	}
	switch c.Engine {
	case Cycle, Modeled, Hybrid:
	default:
		return fmt.Errorf("fleet: unknown engine %v", c.Engine)
	}
	if c.HybridWarm < 0 {
		return fmt.Errorf("fleet: hybrid warm-up count %d must not be negative", c.HybridWarm)
	}
	if c.Engine != Cycle && c.NC >= 2 {
		// The analytic model predicts co-run slowdowns from the
		// interference matrix; without one it would silently model every
		// co-run at solo speed.
		for i, s := range c.Devices {
			if s.Pipe.Matrix() == nil {
				return fmt.Errorf("fleet: %v engine requires an interference matrix (roster entry %d)", c.Engine, i)
			}
		}
	}
	if c.Closed.Enabled {
		if c.Closed.Clients < 1 {
			return fmt.Errorf("fleet: closed-loop runs need at least one client (got %d)", c.Closed.Clients)
		}
		if c.Closed.Requests < 1 {
			return fmt.Errorf("fleet: closed-loop requests per client %d must be positive", c.Closed.Requests)
		}
		if c.Closed.Think < 0 {
			return fmt.Errorf("fleet: closed-loop think time %g must not be negative", c.Closed.Think)
		}
		if c.Closed.LatencyFrac < 0 || c.Closed.LatencyFrac > 1 {
			return fmt.Errorf("fleet: closed-loop latency fraction %g outside [0,1]", c.Closed.LatencyFrac)
		}
		if c.Closed.Retries < 0 {
			return fmt.Errorf("fleet: closed-loop retry budget %d must not be negative", c.Closed.Retries)
		}
		if len(c.Closed.Universe) == 0 {
			return fmt.Errorf("fleet: closed-loop runs need a benchmark universe")
		}
	}
	if c.Admission.Enabled && c.Admission.MaxWait == 0 {
		return fmt.Errorf("fleet: admission control needs a positive wait bound")
	}
	if err := c.Chaos.validate(c.TotalDevices()); err != nil {
		return err
	}
	if c.Autoscale.Enabled {
		if c.Autoscale.Min < 1 || c.Autoscale.Min > c.Autoscale.Max || c.Autoscale.Max > c.TotalDevices() {
			return fmt.Errorf("fleet: autoscale bounds %d..%d invalid for a %d-device roster",
				c.Autoscale.Min, c.Autoscale.Max, c.TotalDevices())
		}
		if c.Autoscale.Low < 0 || c.Autoscale.High <= c.Autoscale.Low {
			return fmt.Errorf("fleet: autoscale watermarks high=%g low=%g must satisfy high > low >= 0",
				c.Autoscale.High, c.Autoscale.Low)
		}
	}
	// Every device type must be calibrated over the same application
	// universe — names AND kernel parameters (a same-named workload with
	// different tuning is a different job), which is exactly what
	// core.Fingerprint hashes.
	base := core.Fingerprint(c.Devices[0].Pipe.Apps())
	for i, s := range c.Devices[1:] {
		if fp := core.Fingerprint(s.Pipe.Apps()); fp != base {
			return fmt.Errorf("fleet: roster entry %d is calibrated over a different universe (fingerprint %s, entry 0 has %s)",
				i+1, fp, base)
		}
	}
	return nil
}

// Fleet dispatches an arrival stream onto the roster's devices using
// each device type's calibrated classes, interference matrix and
// scheduler.
type Fleet struct {
	cfg Config
	// types holds one pipeline per roster entry (device type).
	types []*core.Pipeline
	// devType maps flat device index -> type index; devices are
	// numbered in roster order.
	devType []int
	// order is the placement scan order: device indices sorted by
	// descending peak IPC (ties by index), so idle fast devices are
	// offered work before idle slow ones. orderPos inverts it
	// (device index -> scan position).
	order    []int
	orderPos []int

	// apps is the application table over the roster's universe, one
	// entry per application in universe order (buildApps); a job record
	// holds its application's index. appByName maps a name to it, and
	// classes[t] holds every application's class on device type t, the
	// dispatcher's hottest lookup, in one compact row.
	apps      []appInfo
	appByName map[string]uint16
	classes   [][]classify.Class

	// Memoized matcher inputs (see buildMatchTables): the class-pattern
	// lists for every group size up to NC and each pattern's efficiency
	// per device type. Nil outside the ILP policies and at NC 1, where
	// no pattern is ever scored. All read-only after New — the lazily
	// grown pick tables live on the event loop's dispatcher.
	patIndex   map[uint64]int
	effAll     [][]float64
	ncPatterns []match.Pattern
	ncEff      [][]float64

	// meanSlow[t][cls] is the mean co-run slowdown the type-t
	// interference matrix predicts for a class-cls job over uniform
	// NC-1-partner company, averaged across partner classes — the
	// modeled admission predictor's per-job inflation factor (buildApps
	// bakes it into appInfo.coEst). Nil when any type lacks a matrix or
	// NC < 2; coEst then equals soloEst.
	meanSlow [][]float64
	// worstSlow[t][cls] is the same company's worst slowdown (at least
	// 1), the preemption test's pessimistic co-run factor (coRunCycles).
	// worstSlow[t] is nil for a type without a matrix, and the whole
	// table is nil when NC < 2.
	worstSlow [][]float64
}

// New builds a fleet over the configured roster.
func New(cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	f := &Fleet{cfg: cfg}
	for t, s := range cfg.Devices {
		f.types = append(f.types, s.Pipe)
		for i := 0; i < s.Count; i++ {
			f.devType = append(f.devType, t)
		}
	}
	f.order = make([]int, len(f.devType))
	for i := range f.order {
		f.order[i] = i
	}
	// Stable sort keeps ascending device index within equal peak IPC.
	sort.SliceStable(f.order, func(a, b int) bool {
		pa := f.types[f.devType[f.order[a]]].Config().PeakIPC()
		pb := f.types[f.devType[f.order[b]]].Config().PeakIPC()
		return pa > pb
	})
	f.orderPos = make([]int, len(f.devType))
	for pos, d := range f.order {
		f.orderPos[d] = pos
	}
	f.buildMatchTables()
	f.buildSlowTables()
	if err := f.buildApps(); err != nil {
		return nil, err
	}
	return f, nil
}

// buildSlowTables precomputes the per-type per-class co-run slowdown
// tables over uniform company: NC-1 partners of one class, for every
// partner class — which covers the pairwise and triple matrix entries
// exactly and stays O(NT) rather than enumerating mixed partner
// multisets. meanSlow averages over partner classes (admission wants
// the expected backlog drain time); worstSlow takes the maximum
// (deadline protection wants the least favorable partner).
func (f *Fleet) buildSlowTables() {
	if f.cfg.NC < 2 {
		return
	}
	mean := make([][]float64, len(f.types))
	f.worstSlow = make([][]float64, len(f.types))
	allTyped := true
	for t, pipe := range f.types {
		m := pipe.Matrix()
		if m == nil {
			allTyped = false
			continue
		}
		mean[t] = make([]float64, classify.NumClasses)
		f.worstSlow[t] = make([]float64, classify.NumClasses)
		p := make(match.Pattern, f.cfg.NC)
		for cls := classify.Class(0); cls < classify.NumClasses; cls++ {
			sum, worst := 0.0, 1.0
			for c := classify.Class(0); c < classify.NumClasses; c++ {
				p[0] = cls
				for i := 1; i < f.cfg.NC; i++ {
					p[i] = c
				}
				s := match.MemberSlowdown(m, p, 0)
				sum += s
				if s > worst {
					worst = s
				}
			}
			mean[t][cls] = sum / float64(classify.NumClasses)
			f.worstSlow[t][cls] = worst
		}
	}
	if allTyped {
		f.meanSlow = mean
	}
}

// NewHomogeneous builds a fleet of count identical devices over one
// calibrated pipeline — the single-generation special case.
func NewHomogeneous(pipe *core.Pipeline, count int, cfg Config) (*Fleet, error) {
	cfg.Devices = []DeviceSpec{{Pipe: pipe, Count: count}}
	return New(cfg)
}

// Config returns the resolved configuration.
func (f *Fleet) Config() Config { return f.cfg }

// deviceName returns the config name of device d's type.
func (f *Fleet) deviceName(d int) string {
	return f.types[f.devType[d]].Config().Name
}
