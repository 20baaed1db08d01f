package fleet

import (
	"fmt"
	"strings"
)

// SLOClass is a job's service-level class. The dispatcher only ever
// distinguishes two: work that must meet a deadline and work that only
// cares about throughput.
type SLOClass uint8

const (
	// Batch jobs optimize throughput; they have no deadline and may be
	// evicted (with checkpointed progress) to protect latency work.
	Batch SLOClass = iota
	// Latency jobs carry a deadline. They are dispatched ahead of batch
	// work and are never evicted.
	Latency
)

// String names the class as the CLI and summaries spell it.
func (c SLOClass) String() string {
	switch c {
	case Batch:
		return "batch"
	case Latency:
		return "latency"
	default:
		return fmt.Sprintf("SLOClass(%d)", int(c))
	}
}

// ParseSLOMode maps the CLI's -slo mode spellings to a dispatch
// configuration: "off" is class-blind, "priority" queues latency jobs
// first, "preempt" additionally evicts running batch groups to save
// deadlines. Shared by cmd/fleet and the sweep grid so both spell the
// modes identically.
func ParseSLOMode(s string) (SLOConfig, error) {
	switch strings.ToLower(s) {
	case "off":
		return SLOConfig{}, nil
	case "priority":
		return SLOConfig{Enabled: true}, nil
	case "preempt":
		return SLOConfig{Enabled: true, Preempt: true}, nil
	default:
		return SLOConfig{}, fmt.Errorf("fleet: unknown SLO mode %q (off, priority, preempt)", s)
	}
}

// SLOConfig parameterizes class-aware dispatch. The zero value disables
// it entirely, reproducing the class-blind dispatcher of earlier
// revisions.
type SLOConfig struct {
	// Enabled turns on class-aware dispatch: latency jobs queue ahead of
	// batch jobs and seed group formation first.
	Enabled bool
	// Preempt allows the dispatcher to evict a running batch-only group
	// when a waiting latency job would miss its deadline even if
	// dispatched the instant the next device is predicted to free (under
	// the solo-progress model). Evicted jobs re-enter the queue with
	// their completed fraction checkpointed.
	Preempt bool
}

// The checkpoint model of an eviction. restartFrac is the restart cost
// of a checkpointed job, as a fraction of its solo duration on the
// device that re-runs it, paid once per re-dispatch: it models state
// re-materialization, reloading inputs and replaying the
// un-checkpointed tail. maxCheckpoint caps the preserved completed
// fraction: a job evicted arbitrarily late still has to re-run at
// least 1-maxCheckpoint of itself, because checkpoints are taken from
// the solo-profile progress model, not from simulator state.
const (
	restartFrac   = 0.1
	maxCheckpoint = 0.9
)

// validate rejects impossible SLO configurations.
func (s SLOConfig) validate() error {
	if s.Preempt && !s.Enabled {
		return fmt.Errorf("fleet: preemption requires SLO-aware dispatch (SLO.Enabled)")
	}
	return nil
}

// EvictionRecord is one preemption event: which device was cleared at
// which cycle, which jobs went back to the queue, and how much progress
// each kept.
type EvictionRecord struct {
	// Cycle is when the eviction happened (= the dispatch cycle of the
	// latency job that triggered it).
	Cycle uint64
	// Device is the cleared device.
	Device int
	// TriggerJob is the waiting latency job the eviction protects, or
	// chaosTriggerID (-1) when a device failure forced the eviction.
	TriggerJob int
	// Jobs lists the evicted jobs' IDs in launch order.
	Jobs []int
	// Progress is each evicted job's checkpointed completed fraction
	// after this eviction, indexed like Jobs.
	Progress []float64
	// Wasted is the solo-equivalent work the fleet must re-do because of
	// this eviction, summed over the evicted members: each member's
	// attempt time not preserved by its checkpoint plus the restart tax
	// its re-dispatch will pay, in cycles. It is a job-side re-work
	// measure, not device occupancy — an NC-member group can waste up to
	// NC times the attempt's device time (which DeviceBusy accounts
	// once).
	Wasted uint64
}

// String renders the record as one deterministic trace line.
func (e EvictionRecord) String() string {
	var b strings.Builder
	if e.TriggerJob < 0 {
		fmt.Fprintf(&b, "@%d d%d trigger=chaos evict=[", e.Cycle, e.Device)
	} else {
		fmt.Fprintf(&b, "@%d d%d trigger=j%d evict=[", e.Cycle, e.Device, e.TriggerJob)
	}
	for i, id := range e.Jobs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "j%d:%.3f", id, e.Progress[i])
	}
	fmt.Fprintf(&b, "] wasted=%d", e.Wasted)
	return b.String()
}
