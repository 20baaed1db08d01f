package sched

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/classify"
	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/interference"
	"repro/internal/kernel"
	"repro/internal/match"
	"repro/internal/memo"
	"repro/internal/profile"
	"repro/internal/stats"
)

// Policy selects the scheduling strategy.
type Policy int

const (
	// Serial runs each application alone on the full device.
	Serial Policy = iota
	// FCFS co-runs applications in arrival order with an even SM split.
	// The paper's "Even approach" is this policy.
	FCFS
	// ProfileBased co-runs in arrival order with SM counts proportional
	// to each application's profiled saturation point.
	ProfileBased
	// ILP forms groups with the contention-minimizing matcher and
	// splits SMs evenly.
	ILP
	// ILPSMRA adds run-time SM reallocation to ILP groups.
	ILPSMRA
)

// String names the policy as the paper's figures label it.
func (p Policy) String() string {
	switch p {
	case Serial:
		return "Serial"
	case FCFS:
		return "Even/FCFS"
	case ProfileBased:
		return "Profile-based"
	case ILP:
		return "ILP"
	case ILPSMRA:
		return "ILP-SMRA"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy parses the CLI spelling of a policy name.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(s) {
	case "serial":
		return Serial, nil
	case "fcfs", "even":
		return FCFS, nil
	case "profile", "profile-based":
		return ProfileBased, nil
	case "ilp":
		return ILP, nil
	case "ilp-smra", "smra":
		return ILPSMRA, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (serial, fcfs, profile, ilp, ilp-smra)", s)
	}
}

// QueuedApp is one entry of the waiting queue.
type QueuedApp struct {
	// Params is the kernel to run.
	Params kernel.Params
	// Class is the application's class from the classification step.
	Class classify.Class
	// Arrival is the queue position (FCFS order).
	Arrival int
}

// Group is a set of applications co-scheduled on the device.
type Group []QueuedApp

// GroupReport records one group's execution.
type GroupReport struct {
	// Apps lists member names in launch order.
	Apps []string
	// Classes lists member classes.
	Classes []classify.Class
	// Cycles is the group makespan.
	Cycles uint64
	// Stats holds per-member counters.
	Stats []stats.App
	// SMMoves counts completed SM reallocations (SMRA only).
	SMMoves int
}

// Report summarizes a whole queue execution.
type Report struct {
	Policy Policy
	NC     int
	Groups []GroupReport
	// TotalCycles is the queue makespan (sum of group makespans).
	TotalCycles uint64
	// ThreadInstructions sums all retired instructions.
	ThreadInstructions uint64
}

// Throughput is the paper's device throughput (Equation 1.1).
func (r Report) Throughput() float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	return float64(r.ThreadInstructions) / float64(r.TotalCycles)
}

// AppCycles returns, per queue entry name (with duplicate names
// suffixed), the completion cycles of each application instance.
func (r Report) AppCycles() map[string]uint64 {
	out := make(map[string]uint64)
	for _, g := range r.Groups {
		for i, name := range g.Apps {
			key := name
			for n := 2; ; n++ {
				if _, dup := out[key]; !dup {
					break
				}
				key = fmt.Sprintf("%s#%d", name, n)
			}
			out[key] = g.Stats[i].Cycles()
		}
	}
	return out
}

// MaxGroupCycles bounds one group simulation.
const MaxGroupCycles = 80_000_000

// Scheduler executes queues under the different policies.
type Scheduler struct {
	cfg    config.GPUConfig
	prof   *profile.Profiler
	matrix *interference.Matrix
	smra   SMRAConfig
	// satPoints memoizes profile-based SM demands per benchmark.
	satMu     sync.Mutex
	satPoints map[string]int
	// groups caches group executions, deduplicating concurrent runs of
	// the same group. Simulations are fully deterministic, so a group
	// with the same members, the same SM partition and the same
	// dynamic-reallocation mode always produces the same result;
	// distribution queues repeat such groups many times across policies
	// and figures, and the fleet dispatcher leans on the dedup to
	// pre-simulate likely next groups speculatively without ever
	// doubling work.
	groups *memo.Table[GroupReport]
}

// New builds a scheduler. matrix may be nil when only Serial/FCFS/
// ProfileBased runs are requested.
func New(cfg config.GPUConfig, prof *profile.Profiler, matrix *interference.Matrix) *Scheduler {
	return &Scheduler{
		cfg:       cfg,
		prof:      prof,
		matrix:    matrix,
		smra:      DefaultSMRAConfig(cfg),
		satPoints: make(map[string]int),
		groups:    memo.NewTable[GroupReport](),
	}
}

// SetSMRAConfig overrides the SM reallocation parameters (ablations).
func (s *Scheduler) SetSMRAConfig(c SMRAConfig) { s.smra = c }

// SnapshotGroups returns a copy of the deterministic group-execution
// memo, for persistence across processes.
func (s *Scheduler) SnapshotGroups() map[string]GroupReport {
	return s.groups.Snapshot()
}

// RestoreGroups seeds the group-execution memo with previously captured
// results. Callers are responsible for only restoring snapshots taken
// with identical workload definitions and device configuration (see
// core.Fingerprint).
func (s *Scheduler) RestoreGroups(groups map[string]GroupReport) {
	for k, v := range groups {
		s.groups.Put(k, v)
	}
}

// Run executes the queue under policy with groups of nc applications.
func (s *Scheduler) Run(queue []QueuedApp, nc int, policy Policy) (Report, error) {
	if len(queue) == 0 {
		return Report{}, fmt.Errorf("sched: empty queue")
	}
	if policy == Serial {
		nc = 1
	}
	if nc < 1 {
		return Report{}, fmt.Errorf("sched: group size %d", nc)
	}
	groups, err := s.formGroups(queue, nc, policy)
	if err != nil {
		return Report{}, err
	}
	// Groups execute one after another on the real device, so the queue
	// makespan is the sum of group makespans — but each group runs on a
	// fresh simulated device, so the simulations themselves are
	// independent and run concurrently here. The profiler dedups
	// concurrent requests for the same solo profile, so no sequential
	// warming pass is needed.
	reports := make([]GroupReport, len(groups))
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.NumCPU())
	for i, g := range groups {
		wg.Add(1)
		go func(i int, g Group) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			reports[i], errs[i] = s.RunGroup(g, policy)
		}(i, g)
	}
	wg.Wait()
	rep := Report{Policy: policy, NC: nc}
	for i := range reports {
		if errs[i] != nil {
			return Report{}, errs[i]
		}
		rep.Groups = append(rep.Groups, reports[i])
		rep.TotalCycles += reports[i].Cycles
		for _, st := range reports[i].Stats {
			rep.ThreadInstructions += st.ThreadInstructions
		}
	}
	return rep, nil
}

// formGroups assembles the co-run groups per policy.
func (s *Scheduler) formGroups(queue []QueuedApp, nc int, policy Policy) ([]Group, error) {
	switch policy {
	case Serial:
		groups := make([]Group, len(queue))
		for i, a := range queue {
			groups[i] = Group{a}
		}
		return groups, nil
	case FCFS, ProfileBased:
		var groups []Group
		for i := 0; i < len(queue); i += nc {
			end := i + nc
			if end > len(queue) {
				end = len(queue)
			}
			groups = append(groups, Group(append([]QueuedApp(nil), queue[i:end]...)))
		}
		return groups, nil
	case ILP, ILPSMRA:
		return s.formILPGroups(queue, nc)
	default:
		return nil, fmt.Errorf("sched: unknown policy %v", policy)
	}
}

// formILPGroups runs the matcher on the queue's class composition and
// materializes groups by drawing the oldest queued application of each
// required class.
func (s *Scheduler) formILPGroups(queue []QueuedApp, nc int) ([]Group, error) {
	if s.matrix == nil {
		return nil, fmt.Errorf("sched: ILP policy requires an interference matrix")
	}
	var counts [classify.NumClasses]int
	for _, a := range queue {
		counts[a.Class]++
	}
	patterns := match.Patterns(nc)
	res, err := match.Solve(patterns, match.Efficiencies(s.matrix, patterns), counts, nc, nil)
	if err != nil {
		return nil, err
	}
	// Per-class pools ordered by solo duration (longest first). The ILP
	// decides class patterns; within a pattern the i-th group takes the
	// i-th longest instance of each required class, so long applications
	// co-run with long ones and short with short — otherwise a group's
	// makespan is dominated by its longest member while its partners'
	// SMs idle (classic LPT co-scheduling). Falls back to arrival order
	// when solo profiles are unavailable.
	pools := make([][]QueuedApp, classify.NumClasses)
	for _, a := range queue {
		pools[a.Class] = append(pools[a.Class], a)
	}
	for c := range pools {
		pool := pools[c]
		sort.SliceStable(pool, func(i, j int) bool { return pool[i].Arrival < pool[j].Arrival })
		if s.prof != nil {
			type timed struct {
				app QueuedApp
				dur uint64
			}
			entries := make([]timed, 0, len(pool))
			ok := true
			for _, a := range pool {
				r, err := s.prof.Run(a.Params, 0)
				if err != nil {
					ok = false
					break
				}
				entries = append(entries, timed{app: a, dur: r.Cycles})
			}
			if ok {
				sort.SliceStable(entries, func(i, j int) bool { return entries[i].dur > entries[j].dur })
				for i := range entries {
					pool[i] = entries[i].app
				}
			}
		}
		pools[c] = pool
	}
	var groups []Group
	for k, n := range res.Counts {
		for rep := 0; rep < n; rep++ {
			var g Group
			for _, cls := range res.Patterns[k] {
				if len(pools[cls]) == 0 {
					return nil, fmt.Errorf("sched: matcher over-committed class %v", cls)
				}
				g = append(g, pools[cls][0])
				pools[cls] = pools[cls][1:]
			}
			groups = append(groups, g)
		}
	}
	// Remainder (Nq mod NC): run together in arrival order.
	var leftover Group
	for _, pool := range pools {
		leftover = append(leftover, pool...)
	}
	if len(leftover) > 0 {
		sort.SliceStable(leftover, func(i, j int) bool { return leftover[i].Arrival < leftover[j].Arrival })
		for i := 0; i < len(leftover); i += nc {
			end := i + nc
			if end > len(leftover) {
				end = len(leftover)
			}
			groups = append(groups, Group(append([]QueuedApp(nil), leftover[i:end]...)))
		}
	}
	return groups, nil
}

// groupKey identifies a deterministic group execution: members in
// launch order, their SM partition sizes, and whether run-time
// reallocation is active (with its parameters).
func (s *Scheduler) groupKey(g Group, smSets [][]int, policy Policy) string {
	key := ""
	for i, a := range g {
		key += fmt.Sprintf("%s/%d;", a.Params.Name, len(smSets[i]))
	}
	if policy == ILPSMRA && len(g) > 1 {
		key += fmt.Sprintf("smra:%+v", s.smra)
	}
	return key
}

// RunGroup launches one group and simulates it to completion. It is the
// single-group execution path shared by the batch Run above and the
// online fleet dispatcher (internal/fleet); it is safe for concurrent
// use and memoizes deterministic executions.
func (s *Scheduler) RunGroup(g Group, policy Policy) (GroupReport, error) {
	if len(g) == 0 {
		return GroupReport{}, fmt.Errorf("sched: empty group")
	}
	if len(g) == 1 && s.prof != nil {
		// A single-application group on the full device is exactly a
		// solo profile; reuse the memoized run instead of resimulating.
		r, err := s.prof.Run(g[0].Params, 0)
		if err != nil {
			return GroupReport{}, err
		}
		return GroupReport{
			Apps:    []string{g[0].Params.Name},
			Classes: []classify.Class{g[0].Class},
			Cycles:  r.Cycles,
			Stats: []stats.App{{
				Name:               g[0].Params.Name,
				ThreadInstructions: r.ThreadInstructions,
				EndCycle:           r.Cycles,
				Done:               true,
			}},
		}, nil
	}
	smSets, err := s.partition(g, policy)
	if err != nil {
		return GroupReport{}, err
	}
	return s.groups.Do(s.groupKey(g, smSets, policy), func() (GroupReport, error) {
		return s.simulateGroup(g, smSets, policy)
	})
}

// simulateGroup performs the actual co-run simulation (no memoization).
func (s *Scheduler) simulateGroup(g Group, smSets [][]int, policy Policy) (GroupReport, error) {
	d, err := gpu.New(s.cfg)
	if err != nil {
		return GroupReport{}, err
	}
	handles := make([]gpu.AppHandle, len(g))
	for i, a := range g {
		k, err := kernel.New(a.Params, s.cfg.L1.LineBytes)
		if err != nil {
			return GroupReport{}, err
		}
		k.BaseAddr = uint64(i+1) << 40
		h, err := d.Launch(k, smSets[i])
		if err != nil {
			return GroupReport{}, err
		}
		handles[i] = h
	}
	gr := GroupReport{}
	if policy == ILPSMRA && len(g) > 1 {
		ctrl := newSMRAController(d, handles, s.smra)
		for !d.AllDone() {
			if d.Cycle() >= MaxGroupCycles {
				return GroupReport{}, fmt.Errorf("sched: group exceeded %d cycles", uint64(MaxGroupCycles))
			}
			d.Step()
			ctrl.Tick()
		}
		gr.SMMoves = ctrl.Moves()
	} else {
		if err := d.Run(MaxGroupCycles); err != nil {
			return GroupReport{}, err
		}
	}
	gr.Cycles = d.Cycle()
	for i, h := range handles {
		st := d.AppStats(h)
		gr.Apps = append(gr.Apps, g[i].Params.Name)
		gr.Classes = append(gr.Classes, g[i].Class)
		gr.Stats = append(gr.Stats, st)
	}
	return gr, nil
}

// partition assigns SM sets to group members per policy.
func (s *Scheduler) partition(g Group, policy Policy) ([][]int, error) {
	if len(g) == 1 {
		all := make([]int, s.cfg.NumSMs)
		for i := range all {
			all[i] = i
		}
		return [][]int{all}, nil
	}
	if policy != ProfileBased {
		return interference.EvenSplit(s.cfg.NumSMs, len(g)), nil
	}
	// Profile-based: SMs proportional to each member's saturation point.
	weights := make([]int, len(g))
	total := 0
	for i, a := range g {
		w, err := s.saturationPoint(a.Params)
		if err != nil {
			return nil, err
		}
		weights[i] = w
		total += w
	}
	counts := make([]int, len(g))
	assigned := 0
	for i, w := range weights {
		counts[i] = s.cfg.NumSMs * w / total
		if counts[i] < 1 {
			counts[i] = 1
		}
		assigned += counts[i]
	}
	// Distribute the remainder to the heaviest members.
	for i := 0; assigned < s.cfg.NumSMs; i = (i + 1) % len(counts) {
		counts[i]++
		assigned++
	}
	for i := 0; assigned > s.cfg.NumSMs; i = (i + 1) % len(counts) {
		if counts[i] > 1 {
			counts[i]--
			assigned--
		}
	}
	sets := make([][]int, len(g))
	next := 0
	for i, n := range counts {
		for j := 0; j < n; j++ {
			sets[i] = append(sets[i], next)
			next++
		}
	}
	return sets, nil
}

// saturationPoint profiles the application at increasing core counts
// and returns the smallest count achieving 90% of its full-device IPC —
// the offline demand estimate the profile-based policy allocates by.
func (s *Scheduler) saturationPoint(params kernel.Params) (int, error) {
	s.satMu.Lock()
	v, ok := s.satPoints[params.Name]
	s.satMu.Unlock()
	if ok {
		return v, nil
	}
	full, err := s.prof.Run(params, 0)
	if err != nil {
		return 0, err
	}
	point := s.cfg.NumSMs
	for _, frac := range []int{6, 4, 3, 2} { // NumSMs/6 .. NumSMs/2
		n := s.cfg.NumSMs / frac
		if n < 1 {
			continue
		}
		r, err := s.prof.Run(params, n)
		if err != nil {
			return 0, err
		}
		if r.IPC >= 0.9*full.IPC {
			point = n
			break
		}
	}
	s.satMu.Lock()
	s.satPoints[params.Name] = point
	s.satMu.Unlock()
	return point, nil
}
