package fleet

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/rng"
)

// The chaos layer: deterministic device failure, drain and restore
// mid-run. A fleet serving real traffic does not get a permanently
// healthy roster, so the event loop accepts an injected failure
// schedule and executes it through the same control block that drives
// clients, admission and the autoscaler. The schedule comes in cycle
// order, so it waits in the block's chaos FIFO rather than its heap,
// keyed below every stamped sequence number so a failure fires ahead
// of a same-cycle submission (control.go):
//
//   - fail kills a device outright. A group in flight is evicted
//     through the same EvictionRecord checkpoint machinery preemption
//     uses (trigger "chaos", id -1): its jobs re-enter the queue with
//     checkpointed progress and the device leaves the idle heap.
//   - drain stops new dispatch: the device leaves the idle heap but a
//     group in flight retires normally.
//   - restore returns a failed or draining device to placement order.
//
// The schedule comes either from an explicit trace (ChaosConfig.Trace,
// the CLI's "fail@CYCLE:DEV,..." spelling) or from a generator that
// draws per-device exponential time-between-failure and time-to-repair
// variates from dedicated internal/rng streams, one pending outage per
// device (chaosGen). Either way the schedule is a pure function of the
// configuration — never of goroutine timing or host — so chaos runs
// keep the byte-identical determinism contract.
//
// Failure is deliberately not decommissioning: a failed device stays
// "active" in the autoscaler's books but is subtracted from the
// effective (up) roster, so pressure rises, the Min/Max walk may
// provision a spare around the outage, and the admission predictor
// prices the dead capacity out of its wait estimate (control.go).

// ChaosKind is one chaos action.
type ChaosKind uint8

const (
	// ChaosFail kills the device: its in-flight group is evicted with
	// checkpointed progress and the device accepts no work.
	ChaosFail ChaosKind = iota
	// ChaosDrain stops new dispatch; an in-flight group retires
	// normally.
	ChaosDrain
	// ChaosRestore returns a failed or draining device to service.
	ChaosRestore
)

// String names the kind as the CLI spells it.
func (k ChaosKind) String() string {
	switch k {
	case ChaosFail:
		return "fail"
	case ChaosDrain:
		return "drain"
	case ChaosRestore:
		return "restore"
	default:
		return fmt.Sprintf("ChaosKind(%d)", int(k))
	}
}

// ParseChaosKind parses the CLI spelling.
func ParseChaosKind(s string) (ChaosKind, error) {
	switch strings.ToLower(s) {
	case "fail":
		return ChaosFail, nil
	case "drain":
		return ChaosDrain, nil
	case "restore":
		return ChaosRestore, nil
	default:
		return 0, fmt.Errorf("fleet: unknown chaos kind %q (fail, drain, restore)", s)
	}
}

// ChaosEvent is one scheduled chaos action on one device.
type ChaosEvent struct {
	// Cycle is when the action fires (fleet time).
	Cycle uint64
	// Device is the global device index the action targets.
	Device int
	// Kind is what happens to it.
	Kind ChaosKind
}

// ChaosConfig parameterizes failure injection (Config.Chaos). Exactly
// one of Trace and the MTBF generator must be configured.
type ChaosConfig struct {
	// Enabled turns failure injection on.
	Enabled bool
	// Trace is the explicit failure schedule. Events may be listed in
	// any order; they execute in (cycle, device) order, same-cycle
	// same-device events in list order.
	Trace []ChaosEvent
	// MTBF and MTTR select the generator instead of a trace: each
	// device independently alternates exponential up-times (mean MTBF
	// cycles) ending in a fail and exponential outages (mean MTTR
	// cycles) ending in a restore. Both must be positive together.
	MTBF float64
	MTTR float64
	// Horizon bounds the generator: only fail/restore pairs that both
	// land before it are scheduled, so a generated outage always ends
	// and a drained run cannot strand work on permanently dead devices
	// (0 selects DefaultChaosHorizon).
	Horizon uint64
	// Seed drives the generator's per-device draws; same seed, same
	// schedule. Ignored with an explicit trace.
	Seed uint64
}

// DefaultChaosHorizon is the generator's schedule bound when the
// config leaves it zero: a few multiples of the suite's typical
// makespans, so default runs see whole outage windows.
const DefaultChaosHorizon = 2_000_000

// chaosSalt derives the generator's per-device streams from the seed
// (rng.Hash3(seed, device, chaosSalt)), disjoint from the client
// streams' salts in control.go.
const chaosSalt = 0xC4A05

// withDefaults resolves zero fields.
func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Enabled && c.MTBF > 0 && c.Horizon == 0 {
		c.Horizon = DefaultChaosHorizon
	}
	return c
}

// validate rejects impossible chaos configurations against a roster of
// the given size.
func (c ChaosConfig) validate(devices int) error {
	if !c.Enabled {
		return nil
	}
	hasTrace, hasGen := len(c.Trace) > 0, c.MTBF > 0 || c.MTTR > 0
	if hasTrace == hasGen {
		return fmt.Errorf("fleet: chaos needs exactly one of an event trace or an MTBF/MTTR generator")
	}
	if hasGen {
		if c.MTBF <= 0 || c.MTTR <= 0 {
			return fmt.Errorf("fleet: chaos generator needs positive MTBF and MTTR (got %g/%g)", c.MTBF, c.MTTR)
		}
		if c.Horizon == 0 {
			return fmt.Errorf("fleet: chaos generator needs a positive horizon")
		}
	}
	for i, ev := range c.Trace {
		if ev.Device < 0 || ev.Device >= devices {
			return fmt.Errorf("fleet: chaos event %d targets device %d outside the %d-device roster", i, ev.Device, devices)
		}
		switch ev.Kind {
		case ChaosFail, ChaosDrain, ChaosRestore:
		default:
			return fmt.Errorf("fleet: chaos event %d has unknown kind %v", i, ev.Kind)
		}
	}
	return nil
}

// chaosGen draws the MTBF schedule lazily, in execution order. Each
// device holds its next outage window, drawn from the device's own
// stream (rng.Hash3(seed, device, chaosSalt)) with the same draws the
// whole schedule would take, so the schedule costs O(devices) however
// far the horizon lies. The earliest pending action by (cycle, device)
// fires next (next scans the roster for it), and a window's fail fires
// before its restore.
type chaosGen struct {
	mtbf, mttr float64
	horizon    uint64
	devs       []chaosWindow
}

// chaosWindow is one device's generator state and pending outage.
type chaosWindow struct {
	stream *rng.Stream
	// t is the generator clock: where the last drawn restore landed.
	t             float64
	fail, restore uint64
	// failed: the window's fail has fired and its restore is pending.
	// done: the next window crosses the horizon, so the device is
	// never failed again.
	failed, done bool
}

func newChaosGen(ch ChaosConfig, devices int) *chaosGen {
	g := &chaosGen{mtbf: ch.MTBF, mttr: ch.MTTR, horizon: ch.Horizon, devs: make([]chaosWindow, devices)}
	for d := range g.devs {
		w := &g.devs[d]
		w.stream = rng.NewStream(rng.Hash3(ch.Seed, uint64(d), chaosSalt))
		g.draw(w)
	}
	return g
}

// draw draws w's next outage window: an exponential up-time ending in
// the fail, then an exponential outage ending in the restore. Only
// whole windows inside the horizon are scheduled: a fail whose repair
// lands past it would strand the device (and possibly queued work)
// forever.
func (g *chaosGen) draw(w *chaosWindow) {
	w.t += expo(w.stream) * g.mtbf
	w.fail = uint64(w.t)
	w.t += expo(w.stream) * g.mttr
	w.restore = uint64(w.t)
	w.failed = false
	w.done = w.fail >= g.horizon || w.restore >= g.horizon
}

// next returns the earliest pending action and advances its device;
// ok is false once every device's next window crosses the horizon.
func (g *chaosGen) next() (ev ChaosEvent, ok bool) {
	best, at := -1, uint64(0)
	for d := range g.devs {
		w := &g.devs[d]
		if w.done {
			continue
		}
		cycle := w.fail
		if w.failed {
			cycle = w.restore
		}
		if best < 0 || cycle < at {
			best, at = d, cycle
		}
	}
	if best < 0 {
		return ChaosEvent{}, false
	}
	w := &g.devs[best]
	if !w.failed {
		w.failed = true
		return ChaosEvent{Cycle: at, Device: best, Kind: ChaosFail}, true
	}
	g.draw(w)
	return ChaosEvent{Cycle: at, Device: best, Kind: ChaosRestore}, true
}

// ParseChaos parses the CLI chaos trace spelling
// "fail@CYCLE:DEV,drain@CYCLE:DEV,restore@CYCLE:DEV" into events.
// Device indices are validated against the roster later (Config
// validation); here only the shape is checked.
func ParseChaos(s string) ([]ChaosEvent, error) {
	if s == "" {
		return nil, fmt.Errorf("fleet: empty chaos trace; want KIND@CYCLE:DEV,...")
	}
	var out []ChaosEvent
	for _, entry := range strings.Split(s, ",") {
		kindStr, rest, ok := strings.Cut(strings.TrimSpace(entry), "@")
		if !ok {
			return nil, fmt.Errorf("fleet: chaos event %q is not KIND@CYCLE:DEV", entry)
		}
		kind, err := ParseChaosKind(kindStr)
		if err != nil {
			return nil, fmt.Errorf("fleet: chaos event %q: %v", entry, err)
		}
		cycleStr, devStr, ok := strings.Cut(rest, ":")
		if !ok {
			return nil, fmt.Errorf("fleet: chaos event %q is not KIND@CYCLE:DEV", entry)
		}
		cycle, err := strconv.ParseUint(cycleStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("fleet: chaos event %q cycle: %v", entry, err)
		}
		dev, err := strconv.Atoi(devStr)
		if err != nil || dev < 0 {
			return nil, fmt.Errorf("fleet: chaos event %q needs a non-negative device index", entry)
		}
		out = append(out, ChaosEvent{Cycle: cycle, Device: dev, Kind: kind})
	}
	return out, nil
}

// FormatChaos is the canonical rendering of a chaos trace — the fixed
// point ParseChaos round-trips through.
func FormatChaos(events []ChaosEvent) string {
	var b strings.Builder
	for i, ev := range events {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%v@%d:%d", ev.Kind, ev.Cycle, ev.Device)
	}
	return b.String()
}

// ParseChaosSpec parses the sweep axis / CLI spelling for a whole
// chaos configuration: "off" (or empty) disables it,
// "mtbf:MTBF:MTTR[:HORIZON]" selects the generator, anything else is a
// KIND@CYCLE:DEV trace.
func ParseChaosSpec(s string) (ChaosConfig, error) {
	if s == "" || strings.EqualFold(s, "off") {
		return ChaosConfig{}, nil
	}
	if rest, ok := strings.CutPrefix(strings.ToLower(s), "mtbf:"); ok {
		parts := strings.Split(rest, ":")
		if len(parts) != 2 && len(parts) != 3 {
			return ChaosConfig{}, fmt.Errorf("fleet: chaos generator %q is not mtbf:MTBF:MTTR[:HORIZON]", s)
		}
		mtbf, err := strconv.ParseFloat(parts[0], 64)
		if err != nil || mtbf <= 0 {
			return ChaosConfig{}, fmt.Errorf("fleet: chaos MTBF %q is not a positive cycle count", parts[0])
		}
		mttr, err := strconv.ParseFloat(parts[1], 64)
		if err != nil || mttr <= 0 {
			return ChaosConfig{}, fmt.Errorf("fleet: chaos MTTR %q is not a positive cycle count", parts[1])
		}
		cfg := ChaosConfig{Enabled: true, MTBF: mtbf, MTTR: mttr}
		if len(parts) == 3 {
			h, err := strconv.ParseUint(parts[2], 10, 64)
			if err != nil || h == 0 {
				return ChaosConfig{}, fmt.Errorf("fleet: chaos horizon %q is not a positive cycle count", parts[2])
			}
			cfg.Horizon = h
		}
		return cfg, nil
	}
	trace, err := ParseChaos(s)
	if err != nil {
		return ChaosConfig{}, err
	}
	return ChaosConfig{Enabled: true, Trace: trace}, nil
}
