// Command bench is the repository's end-to-end and per-layer benchmark.
// It runs four workloads that stress different layers — a cold
// calibration, a cycle-accurate fleet, and two modeled fleets (open and
// closed loop) — checks every op's outputs, and prints every metric by
// name with its unit. See README.md for why each workload was chosen
// and which layer each metric belongs to.
//
// Run it from the repository root through bench/run.sh, which builds
// it with its build cache under .bench_build/:
//
//	bash bench/run.sh                            # a set: every workload, -reps runs each
//	bash bench/run.sh -out new.json -trace t.json # plus a traced run per workload
//	bash bench/run.sh -workload modeled-open -seed 3 -seconds 20 -trace 0
//	bash bench/run.sh -compare base.json new.json
//	bash bench/run.sh -regen-calibration
//
// With -workload, one run happens in this process and its last line of
// output is a JSON object: correct, attempted, failed and the medians
// over its ops of the metrics BENCHMARK.json lists (end_to_end with
// -trace 0, per_layer with -trace 1 or -trace FILE). Without it, the
// command runs a set: each workload -reps times, each run a fresh child
// process, one at a time. Any failed op makes the command exit 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	workloadName := flag.String("workload", "", "run this one workload in this process (default: a set of every workload in child processes)")
	seed := flag.Uint64("seed", 1, "input seed; op i of a run uses seed+i/2")
	seconds := flag.Float64("seconds", 20, "how long one run keeps starting ops (it makes at least two)")
	reps := flag.Int("reps", 3, "runs per workload in a set")
	out := flag.String("out", "", "write the set's report as JSON to this file")
	trace := flag.String("trace", "0", "0 = untraced; 1 = traced, spans kept in memory; FILE = traced, spans written to FILE as Chrome trace-event JSON. A set adds one traced run per workload")
	compare := flag.Bool("compare", false, "compare two -out reports: -compare BASE.json NEW.json")
	regen := flag.Bool("regen-calibration", false, "rebuild the calibration fixtures with Pipeline.Init + SaveCalibration")
	flag.Parse()

	if err := mainErr(*workloadName, *seed, *seconds, *reps, *out, *trace, *compare, *regen); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(workloadName string, seed uint64, seconds float64, reps int, out, trace string, compare, regen bool) error {
	if compare {
		if flag.NArg() != 2 {
			return errors.New("-compare takes two files: BASE.json NEW.json")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	// The command runs from the repository root, where bench/run.sh
	// starts it.
	e := newEnv(".", fullSize)
	if regen {
		return regenerate(e.dir)
	}
	if workloadName != "" {
		return runOne(os.Stdout, e, workloadName, seed, seconds, trace)
	}
	if reps < 1 {
		return fmt.Errorf("-reps %d must be at least 1", reps)
	}
	bin, err := os.Executable()
	if err != nil {
		return err
	}
	rep, traced, err := runSet(bin, seed, reps, seconds, trace)
	if err != nil {
		return err
	}
	rep.print(os.Stdout)
	if out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if trace != "0" && trace != "1" {
		if err := writeChromeTrace(trace, traced); err != nil {
			return err
		}
	}
	if n := rep.failed(); n > 0 {
		return fmt.Errorf("%d ops failed", n)
	}
	return nil
}

// result is the last line of a single-workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]valueInUnit `json:"metrics"`
}

type valueInUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne makes one run of one workload in this process and prints its
// result to out.
func runOne(out io.Writer, e *env, name string, seed uint64, seconds float64, trace string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	man, err := loadManifest(filepath.Join(e.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var tr *tracer
	listed := man.EndToEnd
	if trace != "0" {
		tr, listed = newTracer(), man.PerLayer
	}
	d := run(w, e, seed, seconds, tr)
	printRun(out, d)
	line, err := json.Marshal(d)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s%s\n", detailPrefix, line)

	values := d.Samples
	if tr != nil {
		values = d.Layers
	}
	res := result{Correct: d.Failed == 0, Attempted: d.Attempted, Failed: d.Failed, Metrics: map[string]valueInUnit{}}
	for _, m := range listed {
		v, ok := values[m.Name]
		if !ok && d.Failed == 0 {
			return fmt.Errorf("%s reports no %s, which BENCHMARK.json lists", name, m.Name)
		}
		res.Metrics[m.Name] = valueInUnit{Value: medianOf(v), Unit: m.Unit}
	}
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	if tr != nil && trace != "1" {
		if err := writeChromeTrace(trace, []tracedRun{{Workload: name, Spans: d.Spans}}); err != nil {
			return err
		}
	}
	if d.Failed > 0 {
		return fmt.Errorf("%d of %d ops failed", d.Failed, d.Attempted)
	}
	return nil
}

// printRun writes a run's metrics, one per line with its unit, and its
// errors.
func printRun(out io.Writer, d *runDetail) {
	fmt.Fprintf(out, "%s seed %d: %d ops, %d failed\n", d.Workload, d.Seed, d.Attempted, d.Failed)
	for _, e := range d.Errors {
		fmt.Fprintf(out, "  error: %s\n", e)
	}
	var stats []stat
	for _, m := range endToEnd {
		if v, ok := d.Samples[m.Name]; ok {
			stats = append(stats, summarize(m.Name, m.Unit, v))
		}
	}
	printStats(out, stats, d.Tail)
	if d.Layers != nil {
		stats = stats[:0]
		for _, m := range perLayer {
			stats = append(stats, summarize(m.Name, m.Unit, d.Layers[m.Name]))
		}
		printStats(out, stats, "")
	}
}
