package gpu

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/kernel"
	"repro/internal/stats"
	"repro/internal/testkit"
)

// engineCase is one workload layout whose simulated result
// testdata/engine.golden pins.
type engineCase struct {
	name    string
	kernels []kernel.Params
	split   int // number of SM sets to split the device into
}

func engineCases() []engineCase {
	return []engineCase{
		{name: "soloM", kernels: []kernel.Params{testkit.MiniM()}, split: 1},
		{name: "soloC", kernels: []kernel.Params{testkit.MiniC()}, split: 1},
		{name: "soloA", kernels: []kernel.Params{testkit.MiniA()}, split: 1},
		{name: "pairMC", kernels: []kernel.Params{testkit.MiniM(), testkit.MiniC()}, split: 2},
	}
}

// launchCase builds a device and launches the case's kernels on even SM
// splits, mirroring interference.CoRun.
func launchCase(t *testing.T, cfg config.GPUConfig, ec engineCase) *Device {
	t.Helper()
	d := MustNew(cfg)
	per := cfg.NumSMs / ec.split
	for i, params := range ec.kernels {
		k, err := kernel.New(params, cfg.L1.LineBytes)
		if err != nil {
			t.Fatal(err)
		}
		k.BaseAddr = uint64(i+1) << 40
		sms := make([]int, per)
		for j := range sms {
			sms[j] = i*per + j
		}
		if _, err := d.Launch(k, sms); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// update rewrites testdata/engine.golden. The golden pins the
// substrate's simulated result for every engine case, so run
//
//	go test ./internal/gpu -run EngineEquivalence -update
//
// only when the substrate's behavior is *meant* to change.
var update = flag.Bool("update", false, "rewrite testdata/engine.golden")

const engineGolden = "engine.golden"

// renderEngineCase is one case's block of engine.golden: the end cycle
// and DeviceStats with every application's counters.
func renderEngineCase(name string, end uint64, ds stats.Device) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s\n", name)
	fmt.Fprintf(&b, "end_cycle %d\n", end)
	fmt.Fprintf(&b, "device cycles=%d thread_instructions=%d\n", ds.Cycles, ds.ThreadInstructions)
	for _, a := range ds.Apps {
		fmt.Fprintf(&b, "app %+v\n", a)
	}
	return b.String()
}

// readEngineGolden splits engine.golden into its per-case blocks.
func readEngineGolden(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", engineGolden))
	if err != nil {
		t.Fatalf("missing golden (run with -update to capture): %v", err)
	}
	blocks := make(map[string]string)
	for _, blk := range strings.Split(string(raw), "== ")[1:] {
		name, _, _ := strings.Cut(blk, "\n")
		blocks[name] = "== " + blk
	}
	return blocks
}

// TestEngineEquivalence locks the cycle-level substrate: for one kernel
// of each class solo and a co-run pair, on both the small test device
// and the full GTX480 configuration, Run's end cycle and DeviceStats
// must equal the case's block of testdata/engine.golden.
func TestEngineEquivalence(t *testing.T) {
	const maxCycles = 10_000_000
	var golden map[string]string
	if !*update {
		golden = readEngineGolden(t)
	}
	var captured []string
	configs := []config.GPUConfig{testkit.Config(), config.GTX480()}
	for _, cfg := range configs {
		for _, ec := range engineCases() {
			name := cfg.Name + "/" + ec.name
			t.Run(name, func(t *testing.T) {
				d := launchCase(t, cfg, ec)
				if err := d.Run(maxCycles); err != nil {
					t.Fatal(err)
				}
				got := renderEngineCase(name, d.Cycle(), d.DeviceStats())
				if *update {
					captured = append(captured, got)
					return
				}
				if want := golden[name]; got != want {
					t.Errorf("diverged from %s:\n--- want ---\n%s--- got ---\n%s", engineGolden, want, got)
				}
			})
		}
	}
	if *update {
		if len(captured) != len(configs)*len(engineCases()) {
			t.Fatal("-update must run every case: drop the subtest filter")
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", engineGolden)
		if err := os.WriteFile(path, []byte(strings.Join(captured, "")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
