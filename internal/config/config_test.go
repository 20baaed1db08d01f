package config

import (
	"testing"
	"testing/quick"
)

func TestGTX480Valid(t *testing.T) {
	cfg := GTX480()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Table 4.1 values.
	if cfg.NumSMs != 60 || cfg.CoreClockMHz != 700 || cfg.MaxWarpsPerSM != 48 ||
		cfg.MaxBlocksPerSM != 8 || cfg.SharedMemPerSM != 48*1024 ||
		cfg.L1.SizeBytes != 16*1024 || cfg.L2.SizeBytes != 768*1024 {
		t.Fatalf("GTX480 deviates from Table 4.1: %+v", cfg)
	}
}

func TestSmallValid(t *testing.T) {
	if err := Small().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := []func(*GPUConfig){
		func(c *GPUConfig) { c.NumSMs = 0 },
		func(c *GPUConfig) { c.CoreClockMHz = -1 },
		func(c *GPUConfig) { c.WarpSize = 33 },
		func(c *GPUConfig) { c.SchedulersPerSM = 0 },
		func(c *GPUConfig) { c.ALULatency = 0 },
		func(c *GPUConfig) { c.NumMemPartitions = 0 },
		func(c *GPUConfig) { c.NumMemPartitions = 7 }, // 768k not divisible
		func(c *GPUConfig) { c.L1.Assoc = 3 },         // sets not power of two
		func(c *GPUConfig) { c.L1.LineBytes = 96 },
		func(c *GPUConfig) { c.L1.MSHREntries = 0 },
		func(c *GPUConfig) { c.L2.LineBytes = 64 }, // mismatched line sizes
		func(c *GPUConfig) { c.DRAM.RowBytes = 3000 },
		func(c *GPUConfig) { c.DRAM.BurstCycles = 0 },
		func(c *GPUConfig) { c.Icnt.BytesPerCycle = 0 },
	}
	for i, mutate := range mutations {
		cfg := GTX480()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestBandwidthConversionRoundTrip(t *testing.T) {
	cfg := GTX480()
	f := func(raw uint16) bool {
		v := float64(raw) / 7.0
		back := cfg.GBpsToBytesPerCycle(cfg.BytesPerCycleToGBps(v))
		return back > v-1e-9 && back < v+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// 192 bytes/cycle at 700 MHz = 134.4 GB/s.
	got := cfg.BytesPerCycleToGBps(192)
	if got < 134.3 || got > 134.5 {
		t.Fatalf("192 B/c = %v GB/s, want 134.4", got)
	}
}

func TestPeakFigures(t *testing.T) {
	cfg := GTX480()
	if got := cfg.PeakIPC(); got != 120 {
		t.Fatalf("peak warp IPC = %v, want 120", got)
	}
	peak := cfg.PeakDRAMBandwidthGBps()
	if peak < 100 || peak > 200 {
		t.Fatalf("peak DRAM bandwidth = %v GB/s, implausible", peak)
	}
	if cfg.L2Bank().SizeBytes*cfg.NumMemPartitions != cfg.L2.SizeBytes {
		t.Fatal("L2 bank slicing loses capacity")
	}
}

func TestRowMissLatency(t *testing.T) {
	d := GTX480().DRAM
	if d.RowMissLatency() != d.RPLatency+d.RCDLatency+d.CASLatency {
		t.Fatal("row miss latency wrong")
	}
}

func TestByName(t *testing.T) {
	for name, want := range map[string]string{
		"GTX480":      "GTX480-60SM",
		"gtx480-60sm": "GTX480-60SM",
		"Small":       "Small-8SM",
		"small-8sm":   "Small-8SM",
	} {
		cfg, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if cfg.Name != want {
			t.Fatalf("ByName(%q).Name = %q, want %q", name, cfg.Name, want)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("ByName(%q) returns invalid config: %v", name, err)
		}
	}
	if _, err := ByName("H100"); err == nil {
		t.Fatal("accepted unregistered device name")
	}
}
