// Package config defines the architectural configuration of the simulated
// GPU. The default configuration mirrors Table 4.1 of the paper: a
// GTX-480-like device with 60 streaming multiprocessors (SMs), a 700 MHz
// core clock, 48 warps and 8 thread blocks per SM, 16 kB of L1 data cache
// per SM and a 768 kB shared L2. Table 4.1's greedy-then-oldest (GTO)
// warp scheduling is not a setting here: it is the only warp scheduler
// the SM model (internal/smcore) implements.
//
// All latencies and clock-derived quantities in the simulator are
// expressed in core cycles; config converts between cycles and wall-clock
// bandwidth figures (GB/s) so that measured metrics are comparable with
// the numbers the paper reports.
package config

import (
	"fmt"
	"strings"
)

// MemSchedPolicy selects the DRAM request scheduling discipline of each
// memory controller.
type MemSchedPolicy int

const (
	// MemFRFCFS is first-ready, first-come-first-served: requests that
	// hit an open DRAM row are served before older requests that would
	// require a row activation. This is the GPGPU-Sim default and the
	// mechanism the paper identifies as favouring memory-streaming
	// (class M) applications.
	MemFRFCFS MemSchedPolicy = iota
	// MemFCFS serves requests strictly in arrival order. Provided as an
	// ablation against FR-FCFS.
	MemFCFS
)

// String returns the conventional short name of the policy.
func (p MemSchedPolicy) String() string {
	switch p {
	case MemFRFCFS:
		return "FR-FCFS"
	case MemFCFS:
		return "FCFS"
	default:
		return fmt.Sprintf("MemSchedPolicy(%d)", int(p))
	}
}

// CacheConfig describes one level of set-associative cache.
type CacheConfig struct {
	// SizeBytes is the total capacity. It must equal Sets*Assoc*LineBytes.
	SizeBytes int
	// LineBytes is the cache line (sector) size in bytes.
	LineBytes int
	// Assoc is the set associativity.
	Assoc int
	// LatencyCycles is the hit latency in core cycles.
	LatencyCycles int
	// MSHREntries bounds the number of distinct outstanding misses; when
	// exhausted the cache refuses new misses (structural stall).
	MSHREntries int
	// MSHRMaxMerged bounds how many requesters may merge onto one
	// outstanding miss before further accesses to the line stall.
	MSHRMaxMerged int
	// WriteBack selects write-back (true) or write-through (false).
	WriteBack bool
	// WriteAllocate selects whether stores allocate lines on miss.
	WriteAllocate bool
}

// Sets returns the number of sets implied by the geometry.
func (c CacheConfig) Sets() int {
	return c.SizeBytes / (c.LineBytes * c.Assoc)
}

// Validate reports a descriptive error for an inconsistent geometry.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("config: cache size/line/assoc must be positive (got %d/%d/%d)",
			c.SizeBytes, c.LineBytes, c.Assoc)
	}
	if c.SizeBytes%(c.LineBytes*c.Assoc) != 0 {
		return fmt.Errorf("config: cache size %d not divisible by line*assoc %d",
			c.SizeBytes, c.LineBytes*c.Assoc)
	}
	if c.Sets()&(c.Sets()-1) != 0 {
		return fmt.Errorf("config: cache sets %d must be a power of two", c.Sets())
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("config: cache line %d must be a power of two", c.LineBytes)
	}
	if c.MSHREntries <= 0 || c.MSHRMaxMerged <= 0 {
		return fmt.Errorf("config: MSHR entries/merged must be positive (got %d/%d)",
			c.MSHREntries, c.MSHRMaxMerged)
	}
	return nil
}

// DRAMConfig describes one memory partition's controller and devices.
type DRAMConfig struct {
	// Banks is the number of DRAM banks per partition.
	Banks int
	// RowBytes is the row-buffer size per bank in bytes.
	RowBytes int
	// QueueSize bounds the controller's request queue; when full the
	// partition exerts backpressure on the interconnect.
	QueueSize int
	// CASLatency is the column access latency (row hit) in core cycles.
	CASLatency int
	// RPLatency is the precharge latency in core cycles.
	RPLatency int
	// RCDLatency is the activate (row open) latency in core cycles.
	RCDLatency int
	// BurstCycles is the data-bus occupancy of one line transfer.
	BurstCycles int
	// Sched selects FR-FCFS or FCFS request scheduling.
	Sched MemSchedPolicy
}

// RowMissLatency returns the service latency of a request that must close
// the current row and open another (precharge + activate + column access).
func (d DRAMConfig) RowMissLatency() int { return d.RPLatency + d.RCDLatency + d.CASLatency }

// Validate reports a descriptive error for inconsistent DRAM parameters.
func (d DRAMConfig) Validate() error {
	if d.Banks <= 0 || d.RowBytes <= 0 || d.QueueSize <= 0 {
		return fmt.Errorf("config: DRAM banks/row/queue must be positive (got %d/%d/%d)",
			d.Banks, d.RowBytes, d.QueueSize)
	}
	if d.RowBytes&(d.RowBytes-1) != 0 {
		return fmt.Errorf("config: DRAM row size %d must be a power of two", d.RowBytes)
	}
	if d.CASLatency <= 0 || d.RPLatency <= 0 || d.RCDLatency <= 0 || d.BurstCycles <= 0 {
		return fmt.Errorf("config: DRAM latencies must be positive")
	}
	return nil
}

// IcntConfig describes the SM-to-memory-partition interconnect.
type IcntConfig struct {
	// LatencyCycles is the one-way traversal latency.
	LatencyCycles int
	// BytesPerCycle is the aggregate per-direction bandwidth of the
	// network. Request and response traffic contend for it separately.
	BytesPerCycle int
	// QueueSize bounds each direction's in-flight queue per partition.
	QueueSize int
}

// Validate reports a descriptive error for inconsistent parameters.
func (i IcntConfig) Validate() error {
	if i.LatencyCycles <= 0 || i.BytesPerCycle <= 0 || i.QueueSize <= 0 {
		return fmt.Errorf("config: icnt latency/bandwidth/queue must be positive (got %d/%d/%d)",
			i.LatencyCycles, i.BytesPerCycle, i.QueueSize)
	}
	return nil
}

// GPUConfig is the full architectural description of a simulated device.
type GPUConfig struct {
	// Name labels the configuration in reports.
	Name string
	// NumSMs is the number of streaming multiprocessors.
	NumSMs int
	// CoreClockMHz is the core clock; bandwidth figures are derived from
	// it (bytes/cycle * clock = bytes/second).
	CoreClockMHz int
	// WarpSize is the number of threads per warp.
	WarpSize int
	// MaxWarpsPerSM bounds resident warps per SM.
	MaxWarpsPerSM int
	// MaxBlocksPerSM bounds resident thread blocks (CTAs) per SM.
	MaxBlocksPerSM int
	// SchedulersPerSM is the number of warp schedulers (issue slots per
	// cycle) per SM.
	SchedulersPerSM int
	// RegistersPerSM is the register-file capacity in 32-bit registers.
	RegistersPerSM int
	// SharedMemPerSM is the scratchpad capacity in bytes.
	SharedMemPerSM int
	// ALULatency is the default arithmetic latency in cycles.
	ALULatency int
	// SFULatency is the special-function-unit latency in cycles.
	SFULatency int
	// SharedLatency is the scratchpad access latency in cycles.
	SharedLatency int
	// L1 is the per-SM data cache.
	L1 CacheConfig
	// L2 is the device-wide cache, banked across memory partitions;
	// SizeBytes is the total across all partitions.
	L2 CacheConfig
	// NumMemPartitions is the number of L2 bank + memory controller
	// pairs.
	NumMemPartitions int
	// DRAM configures each partition's memory controller.
	DRAM DRAMConfig
	// Icnt configures the SM-to-partition interconnect.
	Icnt IcntConfig
}

// GTX480 returns the paper's experimental setup (Table 4.1): a Fermi-class
// device scaled to 60 SMs. Unspecified microarchitectural latencies use
// GPGPU-Sim 3.x defaults for the GTX 480 card.
func GTX480() GPUConfig {
	return GPUConfig{
		Name:            "GTX480-60SM",
		NumSMs:          60,
		CoreClockMHz:    700,
		WarpSize:        32,
		MaxWarpsPerSM:   48,
		MaxBlocksPerSM:  8,
		SchedulersPerSM: 2,
		RegistersPerSM:  32768,
		SharedMemPerSM:  48 * 1024,
		ALULatency:      4,
		SFULatency:      8,
		SharedLatency:   24,
		L1: CacheConfig{
			SizeBytes:     16 * 1024,
			LineBytes:     128,
			Assoc:         4,
			LatencyCycles: 1,
			MSHREntries:   32,
			MSHRMaxMerged: 8,
			WriteBack:     false,
			WriteAllocate: false,
		},
		L2: CacheConfig{
			SizeBytes:     768 * 1024,
			LineBytes:     128,
			Assoc:         8,
			LatencyCycles: 8,
			MSHREntries:   64,
			MSHRMaxMerged: 16,
			WriteBack:     true,
			WriteAllocate: true,
		},
		NumMemPartitions: 6,
		DRAM: DRAMConfig{
			Banks:       8,
			RowBytes:    4096,
			QueueSize:   64,
			CASLatency:  20,
			RPLatency:   20,
			RCDLatency:  20,
			BurstCycles: 4,
			Sched:       MemFRFCFS,
		},
		Icnt: IcntConfig{
			LatencyCycles: 8,
			BytesPerCycle: 384,
			QueueSize:     64,
		},
	}
}

// Small returns a reduced device for unit tests: 8 SMs, 2 partitions,
// small caches. It keeps every mechanism of the full device but runs
// orders of magnitude faster.
func Small() GPUConfig {
	c := GTX480()
	c.Name = "Small-8SM"
	c.NumSMs = 8
	c.NumMemPartitions = 2
	c.L1.SizeBytes = 4 * 1024
	c.L2.SizeBytes = 64 * 1024
	c.Icnt.BytesPerCycle = 64
	return c
}

// ByName resolves a device configuration from its registered name, for
// CLI roster flags and experiment specs. Both the full config name
// ("GTX480-60SM") and the constructor shorthand ("GTX480") are
// accepted, case-insensitively.
func ByName(name string) (GPUConfig, error) {
	switch strings.ToLower(name) {
	case "gtx480", "gtx480-60sm":
		return GTX480(), nil
	case "small", "small-8sm":
		return Small(), nil
	default:
		return GPUConfig{}, fmt.Errorf("config: unknown device %q (GTX480, Small)", name)
	}
}

// Validate checks the full configuration for internal consistency.
func (g GPUConfig) Validate() error {
	if g.NumSMs <= 0 {
		return fmt.Errorf("config: NumSMs must be positive (got %d)", g.NumSMs)
	}
	if g.CoreClockMHz <= 0 {
		return fmt.Errorf("config: CoreClockMHz must be positive (got %d)", g.CoreClockMHz)
	}
	if g.WarpSize <= 0 || g.WarpSize&(g.WarpSize-1) != 0 {
		return fmt.Errorf("config: WarpSize must be a positive power of two (got %d)", g.WarpSize)
	}
	if g.MaxWarpsPerSM <= 0 || g.MaxBlocksPerSM <= 0 || g.SchedulersPerSM <= 0 {
		return fmt.Errorf("config: per-SM limits must be positive")
	}
	if g.RegistersPerSM <= 0 || g.SharedMemPerSM <= 0 {
		return fmt.Errorf("config: per-SM register/shared capacities must be positive")
	}
	if g.ALULatency <= 0 || g.SFULatency <= 0 || g.SharedLatency <= 0 {
		return fmt.Errorf("config: functional-unit latencies must be positive")
	}
	if g.NumMemPartitions <= 0 {
		return fmt.Errorf("config: NumMemPartitions must be positive (got %d)", g.NumMemPartitions)
	}
	if g.L2.SizeBytes%g.NumMemPartitions != 0 {
		return fmt.Errorf("config: L2 size %d not divisible by %d partitions",
			g.L2.SizeBytes, g.NumMemPartitions)
	}
	if err := g.L1.Validate(); err != nil {
		return fmt.Errorf("L1: %w", err)
	}
	bank := g.L2
	bank.SizeBytes = g.L2.SizeBytes / g.NumMemPartitions
	if err := bank.Validate(); err != nil {
		return fmt.Errorf("L2 bank: %w", err)
	}
	if g.L1.LineBytes != g.L2.LineBytes {
		return fmt.Errorf("config: L1 line %d != L2 line %d", g.L1.LineBytes, g.L2.LineBytes)
	}
	if err := g.DRAM.Validate(); err != nil {
		return err
	}
	if err := g.Icnt.Validate(); err != nil {
		return err
	}
	return nil
}

// L2Bank returns the per-partition slice of the L2 configuration.
func (g GPUConfig) L2Bank() CacheConfig {
	bank := g.L2
	bank.SizeBytes = g.L2.SizeBytes / g.NumMemPartitions
	return bank
}

// PeakIPC returns the maximum instructions per cycle the device can
// retire: one instruction per scheduler per SM per cycle.
func (g GPUConfig) PeakIPC() float64 {
	return float64(g.NumSMs * g.SchedulersPerSM)
}

// BytesPerCycleToGBps converts an on-chip bytes/cycle figure to GB/s at
// the configured core clock (1 GB = 1e9 bytes, matching vendor marketing
// and the paper's units).
func (g GPUConfig) BytesPerCycleToGBps(bytesPerCycle float64) float64 {
	return bytesPerCycle * float64(g.CoreClockMHz) * 1e6 / 1e9
}

// GBpsToBytesPerCycle is the inverse of BytesPerCycleToGBps.
func (g GPUConfig) GBpsToBytesPerCycle(gbps float64) float64 {
	return gbps * 1e9 / (float64(g.CoreClockMHz) * 1e6)
}

// PeakDRAMBandwidthGBps returns the aggregate DRAM data-bus bandwidth of
// all partitions: one line per BurstCycles per partition.
func (g GPUConfig) PeakDRAMBandwidthGBps() float64 {
	bytesPerCycle := float64(g.NumMemPartitions) * float64(g.L2.LineBytes) / float64(g.DRAM.BurstCycles)
	return g.BytesPerCycleToGBps(bytesPerCycle)
}
