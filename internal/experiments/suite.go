package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/workloads"
)

// DefaultSeed fixes the queue arrival orders so every regeneration of
// the figures is reproducible.
const DefaultSeed = 0xda7e2018

// Suite owns one initialized pipeline over the full workload suite and
// memoizes queue executions, since several figures share the same runs
// (e.g. Fig 4.3 and Fig 4.4 both need the equal-distribution queues).
type Suite struct {
	P    *core.Pipeline
	Seed uint64

	mu        sync.Mutex
	queueMemo map[string]sched.Report
	// groupCache is the on-disk location of the scheduler's persisted
	// group memo ("" disables persistence).
	groupCache string
}

// NewSuite builds and initializes a suite on the given device
// configuration (profiles + classification + interference matrix).
//
// Calibration (solo profiles + the all-pairs interference campaign) is
// the expensive step; it is cached on disk keyed by device name and a
// fingerprint of every workload parameter, so repeated regenerations of
// the figures within one environment skip it. Set REPRO_CALIBRATION to
// choose the cache path ("-<device>" is inserted before its extension),
// or to "off" to disable caching.
func NewSuite(cfg config.GPUConfig) (*Suite, error) {
	apps := workloads.All()
	p, err := core.LoadOrInit(cfg, apps)
	if err != nil {
		return nil, err
	}
	s := &Suite{P: p, Seed: DefaultSeed, queueMemo: make(map[string]sched.Report)}
	s.groupCache = groupCachePath(cfg.Name, core.Fingerprint(apps))
	s.loadGroups()
	return s, nil
}

// groupCachePath resolves the persisted group-execution memo location,
// tied to the same cache directory and fingerprint as the calibration.
func groupCachePath(device, fingerprint string) string {
	base := core.CalibrationCachePath(device)
	if base == "" {
		return ""
	}
	return filepath.Join(filepath.Dir(base), "repro-groups-"+device+"-"+fingerprint+".json")
}

// loadGroups seeds the scheduler's deterministic group memo from disk.
func (s *Suite) loadGroups() {
	if s.groupCache == "" {
		return
	}
	data, err := os.ReadFile(s.groupCache)
	if err != nil {
		return
	}
	var groups map[string]sched.GroupReport
	if json.Unmarshal(data, &groups) != nil {
		return
	}
	s.P.Scheduler().RestoreGroups(groups)
}

// saveGroups persists the group memo (best effort).
func (s *Suite) saveGroups() {
	if s.groupCache == "" {
		return
	}
	data, err := json.Marshal(s.P.Scheduler().SnapshotGroups())
	if err != nil {
		return
	}
	_ = os.WriteFile(s.groupCache, data, 0o644)
}

// runNames executes a queue given as benchmark names, memoized.
func (s *Suite) runNames(key string, names []string, nc int, policy sched.Policy) (sched.Report, error) {
	memoKey := fmt.Sprintf("%s/%d/%v", key, nc, policy)
	s.mu.Lock()
	if rep, ok := s.queueMemo[memoKey]; ok {
		s.mu.Unlock()
		return rep, nil
	}
	s.mu.Unlock()
	queue, err := s.P.Queue(names)
	if err != nil {
		return sched.Report{}, err
	}
	rep, err := s.P.Run(queue, nc, policy)
	if err != nil {
		return sched.Report{}, err
	}
	s.mu.Lock()
	s.queueMemo[memoKey] = rep
	s.mu.Unlock()
	s.saveGroups()
	return rep, nil
}

// gen is one named artifact generator.
type gen struct {
	name string
	fn   func() (Artifact, error)
}

// gens lists the artifact generators in paper order.
func (s *Suite) gens() []gen {
	return []gen{
		{"Fig1.2", s.Fig1_2},
		{"Table3.2", s.Table3_2},
		{"Fig3.4", s.Fig3_4},
		{"Fig3.5", s.Fig3_5},
		{"Fig3.6", s.Fig3_6},
		{"Fig4.1", s.Fig4_1},
		{"Fig4.2", s.Fig4_2},
		{"Fig4.3", s.Fig4_3},
		{"Fig4.4", s.Fig4_4},
		{"Fig4.5", s.Fig4_5},
		{"Fig4.6", s.Fig4_6},
		{"Fig4.7", s.Fig4_7},
		{"Fig4.8", s.Fig4_8},
		{"Fig4.9", s.Fig4_9},
		{"Fig4.10", s.Fig4_10},
		{"Fig4.11", s.Fig4_11},
		{"Fig4.12", s.Fig4_12},
		{"AppendixA", s.AppendixA},
		{"FleetOnline", s.FleetOnline},
		{"FleetHetero", s.FleetHetero},
		{"FleetSLO", s.FleetSLO},
		{"FleetScale", s.FleetScale},
		{"FleetAdmission", s.FleetAdmission},
		{"FleetElastic", s.FleetElastic},
		{"FleetSweep", s.FleetSweep},
		{"FleetChaos", s.FleetChaos},
	}
}

// All runs every experiment and returns the artifacts in paper order.
func (s *Suite) All() ([]Artifact, error) {
	gens := s.gens()
	out := make([]Artifact, 0, len(gens))
	for _, g := range gens {
		a, err := g.fn()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", g.name, err)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run generates a single artifact by ID (case-insensitive), without
// computing the rest of the suite.
func (s *Suite) Run(id string) (Artifact, error) {
	for _, g := range s.gens() {
		if strings.EqualFold(g.name, id) {
			a, err := g.fn()
			if err != nil {
				return Artifact{}, fmt.Errorf("%s: %w", g.name, err)
			}
			return a, nil
		}
	}
	return Artifact{}, fmt.Errorf("no artifact named %q", id)
}
