// Command sweep runs a scenario grid — dispatch policy × completion
// engine × roster × arrival process × SLO mode — over a bounded worker
// pool and collects every cell's summary metrics into one tidy CSV or
// JSON artifact, the Go-native analogue of hand-driving cmd/fleet once
// per configuration. The same binary diffs two such artifacts cell by
// cell (-delta).
//
// Usage:
//
//	sweep -policies fcfs,ilp,ilp-smra -engines modeled -slo off,preempt \
//	      -rosters "4xGTX480;2xGTX480,2xSmall-8SM" -arrivals poisson,bursty \
//	      -jobs 64 -rate 0.8 -latency-frac 0.2 -out sweep.csv
//	sweep -config grid.json -out sweep.json
//	sweep -delta baseline.csv new.csv
//
// Axes are comma-separated except -rosters and -chaoses, whose
// elements themselves contain commas ("2xGTX480,2xSmall-8SM";
// "fail@50000:0,restore@200000:0") and are therefore separated by
// semicolons. -config reads the same grid as JSON (see
// internal/sweep.Grid); explicit axis flags override the file's axes.
// -out picks the format by extension (.json = JSON, otherwise CSV);
// without -out the CSV goes to stdout.
//
// Every cell of an arrival kind replays the identical generated
// traffic, so metric differences across cells are pure configuration.
// The whole artifact is deterministic: the same grid (and seed) twice
// is byte-identical, whatever the worker pool did — which is what makes
// -delta meaningful.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

func main() {
	log.SetFlags(0)
	configPath := flag.String("config", "", "read the grid from this JSON file (axis flags override)")
	policies := flag.String("policies", "", "comma-separated dispatch policies (default ilp-smra)")
	engines := flag.String("engines", "", "comma-separated completion engines (default modeled)")
	rosters := flag.String("rosters", "", "semicolon-separated rosters, each COUNTxCONFIG,... (default 4xGTX480)")
	arrivals := flag.String("arrivals", "", "comma-separated arrival processes: poisson, bursty (default poisson)")
	slos := flag.String("slo", "", "comma-separated SLO modes: off, priority, preempt (default off)")
	admissions := flag.String("admissions", "", "comma-separated admission modes: off, reject:MAXWAIT, degrade:MAXWAIT (default off)")
	autoscales := flag.String("autoscales", "", "comma-separated elastic-roster bounds: off or MIN:MAX (default off)")
	chaoses := flag.String("chaoses", "", "semicolon-separated failure schedules: off, KIND@CYCLE:DEV,... traces, or mtbf:MTBF:MTTR[:HORIZON] (default off)")
	nc := flag.Int("nc", 0, "co-run group size per device (0 = default 2)")
	jobs := flag.Int("jobs", 0, "arriving jobs per cell (0 = default 32)")
	rate := flag.Float64("rate", 0, "mean arrival rate in jobs per 1000 cycles (0 = default 0.5)")
	latencyFrac := flag.Float64("latency-frac", 0, "fraction of jobs tagged latency-class")
	deadline := flag.Uint64("deadline", 0, "relative deadline in cycles for latency jobs (0 = default)")
	aging := flag.Float64("aging", 0, "wait-time aging weight for the ILP policies")
	hybridWarm := flag.Int("hybrid-warm", 0, "hybrid engine warm-up runs per composition (0 = default)")
	seed := flag.Uint64("seed", 0, "arrival-stream seed (0 = default 1)")
	workers := flag.Int("workers", 0, "concurrent cells (0 = NumCPU)")
	out := flag.String("out", "", "write the artifact to this file (.json = JSON, else CSV; empty = CSV to stdout)")
	delta := flag.Bool("delta", false, "diff two sweep artifacts: sweep -delta baseline new")
	flag.Parse()

	if *delta {
		if flag.NArg() != 2 {
			log.Fatal("sweep: -delta needs exactly two artifacts: sweep -delta baseline new")
		}
		if err := runDelta(flag.Arg(0), flag.Arg(1)); err != nil {
			log.Fatal(err)
		}
		return
	}
	if flag.NArg() != 0 {
		log.Fatalf("sweep: unexpected arguments %v (grids are spelled with flags or -config)", flag.Args())
	}

	var g sweep.Grid
	if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			log.Fatal(err)
		}
		if g, err = sweep.ParseGrid(data); err != nil {
			log.Fatalf("sweep: parse %s: %v", *configPath, err)
		}
	}
	axis := func(dst *[]string, csv, sep string) {
		if csv == "" {
			return
		}
		*dst = (*dst)[:0]
		for _, v := range strings.Split(csv, sep) {
			if v = strings.TrimSpace(v); v != "" {
				*dst = append(*dst, v)
			}
		}
	}
	axis(&g.Policies, *policies, ",")
	axis(&g.Engines, *engines, ",")
	axis(&g.Rosters, *rosters, ";")
	axis(&g.Arrivals, *arrivals, ",")
	axis(&g.SLOs, *slos, ",")
	axis(&g.Admissions, *admissions, ",")
	axis(&g.Autoscales, *autoscales, ",")
	axis(&g.Chaoses, *chaoses, ";")
	scalar := func(set bool, apply func()) {
		if set {
			apply()
		}
	}
	scalar(*nc != 0, func() { g.NC = *nc })
	scalar(*jobs != 0, func() { g.Jobs = *jobs })
	scalar(*rate != 0, func() { g.Rate = *rate })
	scalar(*latencyFrac != 0, func() { g.LatencyFrac = *latencyFrac })
	scalar(*deadline != 0, func() { g.Deadline = *deadline })
	scalar(*aging != 0, func() { g.Aging = *aging })
	scalar(*hybridWarm != 0, func() { g.HybridWarm = *hybridWarm })
	scalar(*seed != 0, func() { g.Seed = *seed })

	cells, err := g.Expand()
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("sweep: %d cells", len(cells))
	start := time.Now()
	r := sweep.Runner{
		Workers: *workers,
		Names:   workloads.Names,
		Roster: func(label string) ([]fleet.DeviceSpec, error) {
			entries, err := fleet.ParseRoster(label)
			if err != nil {
				return nil, err
			}
			// Calibration is disk-cached per device config, shared
			// across rosters that repeat a configuration.
			return fleet.BuildRoster(entries, workloads.All())
		},
		Progress: func(done, total int) { log.Printf("sweep: cell %d/%d done", done, total) },
	}
	art, err := r.Run(g)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("sweep: %d cells in %v wall-clock", len(art.Cells), time.Since(start).Round(time.Millisecond))
	if *out == "" {
		if err := art.WriteCSV(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if strings.HasSuffix(*out, ".json") {
		err = art.WriteJSON(f)
	} else {
		err = art.WriteCSV(f)
	}
	if err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("sweep: wrote %s", *out)
}

// runDelta loads two artifacts and prints their cell-by-cell diff.
func runDelta(basePath, curPath string) error {
	load := func(path string) (*sweep.Artifact, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("sweep: cannot read artifact %s: %w (run sweep -out %s first?)", path, err, path)
		}
		defer f.Close()
		a, err := sweep.Load(f)
		if err != nil {
			return nil, fmt.Errorf("sweep: artifact %s does not parse as a sweep CSV or JSON artifact: %w", path, err)
		}
		return a, nil
	}
	base, err := load(basePath)
	if err != nil {
		return err
	}
	cur, err := load(curPath)
	if err != nil {
		return err
	}
	fmt.Printf("sweep deltas (%s -> %s):\n", basePath, curPath)
	return sweep.Delta(base, cur, os.Stdout)
}
