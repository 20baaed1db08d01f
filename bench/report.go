package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// hostInfo records where a set was measured; numbers from different
// hosts are not comparable.
type hostInfo struct {
	Go         string `json:"go"`
	OS         string `json:"os"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
}

func host() hostInfo {
	h := hostInfo{
		Go: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH,
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// setReport is the -out file: one set of runs of every workload.
type setReport struct {
	Host      hostInfo         `json:"host"`
	Seed      uint64           `json:"seed"`
	Reps      int              `json:"reps"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadReport `json:"workloads"`
}

// workloadReport is one workload's share of a set. Metrics are over all
// ops of all its untraced runs (maxrss_mb over runs, error_rate over
// the set); Layers come from its traced run.
type workloadReport struct {
	Name      string            `json:"name"`
	Runs      int               `json:"runs"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Digests   map[string]string `json:"digests"`
	Tail      string            `json:"tail_percentile,omitempty"`
	Metrics   []stat            `json:"metrics"`
	Layers    []stat            `json:"per_layer,omitempty"`
	// TraceOverheadS is the traced run's median run_s minus the
	// untraced median.
	TraceOverheadS *float64 `json:"trace_overhead_s,omitempty"`
}

// child runs one workload in a fresh process of this binary, in this
// working directory, and returns what it measured. The child writes
// progress to stderr and, on its stdout, a "detail" line the parent
// reads.
func child(bin, workload string, seed uint64, seconds float64, trace string) (*runDetail, error) {
	cmd := exec.Command(bin, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), detailPrefix); ok {
			var d runDetail
			if err := json.Unmarshal([]byte(rest), &d); err != nil {
				return nil, fmt.Errorf("%s: decode detail: %w", workload, err)
			}
			return &d, nil
		}
	}
	if runErr != nil {
		return nil, fmt.Errorf("%s: %w", workload, runErr)
	}
	return nil, fmt.Errorf("%s: child printed no detail line", workload)
}

const detailPrefix = "detail "

// runSet runs every workload reps times, one child process at a time,
// plus one traced run each when trace is not "0".
func runSet(bin string, seed uint64, reps int, seconds float64, trace string) (*setReport, []tracedRun, error) {
	rep := &setReport{Host: host(), Seed: seed, Reps: reps, Seconds: seconds}
	var traced []tracedRun
	for _, w := range workloadList {
		wr := workloadReport{Name: w.name, Digests: map[string]string{}}
		samples, runs := map[string][]float64{}, map[string][]float64{}
		bySeed := map[string]map[string]float64{}
		for r := 0; r < reps; r++ {
			fmt.Fprintf(os.Stderr, "bench: %s run %d/%d\n", w.name, r+1, reps)
			d, err := child(bin, w.name, seed, seconds, "0")
			if err != nil {
				return nil, nil, err
			}
			wr.merge(d)
			for name, v := range d.Samples {
				if name != "error_rate" {
					samples[name] = append(samples[name], v...)
					runs[name] = append(runs[name], medianOf(v))
				}
			}
			for name, values := range d.BySeed {
				if bySeed[name] == nil {
					bySeed[name] = map[string]float64{}
				}
				for seed, v := range values {
					bySeed[name][seed] = v
				}
			}
		}
		rate := float64(wr.Failed) / float64(wr.Attempted)
		samples["error_rate"], runs["error_rate"] = []float64{rate}, []float64{rate}
		for _, m := range endToEnd {
			if v, ok := samples[m.Name]; ok {
				s := summarize(m.Name, m.Unit, v)
				s.Runs, s.BySeed = runs[m.Name], bySeed[m.Name]
				wr.Metrics = append(wr.Metrics, s)
			}
		}
		if trace != "0" {
			fmt.Fprintf(os.Stderr, "bench: %s traced run\n", w.name)
			d, err := child(bin, w.name, seed, seconds, "1")
			if err != nil {
				return nil, nil, err
			}
			wr.merge(d)
			wr.Runs-- // the traced run adds checks, not samples
			for _, m := range perLayer {
				wr.Layers = append(wr.Layers, summarize(m.Name, m.Unit, d.Layers[m.Name]))
			}
			overhead := medianOf(d.Layers["trace.run_s"]) - medianOf(samples["run_s"])
			wr.TraceOverheadS = &overhead
			traced = append(traced, tracedRun{Workload: w.name, Spans: d.Spans})
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep, traced, nil
}

// merge adds one run's counts and checks its digests against earlier
// runs of the same seed: a mismatch is a failed op.
func (wr *workloadReport) merge(d *runDetail) {
	wr.Runs++
	wr.Attempted += d.Attempted
	wr.Failed += d.Failed
	wr.Errors = append(wr.Errors, d.Errors...)
	if d.Tail != "" {
		wr.Tail = d.Tail
	}
	for seed, digest := range d.Digests {
		if prev, ok := wr.Digests[seed]; ok && prev != digest {
			wr.Attempted++
			wr.Failed++
			wr.Errors = append(wr.Errors, fmt.Sprintf("seed %s: digest %s differs from %s of an earlier run", seed, digest, prev))
			continue
		}
		wr.Digests[seed] = digest
	}
}

// failed counts failed ops across the set.
func (r *setReport) failed() int {
	n := 0
	for _, w := range r.Workloads {
		n += w.Failed
	}
	return n
}

// print writes the set as a table: every metric by name with its unit,
// one block per workload.
func (r *setReport) print(w io.Writer) {
	h := r.Host
	fmt.Fprintf(w, "host: %s, %s, nproc=%d, GOMAXPROCS=%d, %s, commit %s\n", h.CPU, h.OS, h.NProc, h.GOMAXPROCS, h.Go, h.Commit)
	fmt.Fprintf(w, "seed %d, %d runs per workload, %gs per run\n", r.Seed, r.Reps, r.Seconds)
	for _, wr := range r.Workloads {
		fmt.Fprintf(w, "\n%s: %d runs, %d/%d ops failed\n", wr.Name, wr.Runs, wr.Failed, wr.Attempted)
		for _, e := range wr.Errors {
			fmt.Fprintf(w, "  error: %s\n", e)
		}
		printStats(w, wr.Metrics, wr.Tail)
		if len(wr.Layers) > 0 {
			fmt.Fprintf(w, "  per layer (traced run; tracing overhead %+.4f s per op):\n", *wr.TraceOverheadS)
			printStats(w, wr.Layers, "")
		}
		seeds := make([]string, 0, len(wr.Digests))
		for s := range wr.Digests {
			seeds = append(seeds, s)
		}
		sort.Slice(seeds, func(i, j int) bool {
			a, _ := strconv.ParseUint(seeds[i], 10, 64)
			b, _ := strconv.ParseUint(seeds[j], 10, 64)
			return a < b
		})
		for _, s := range seeds {
			fmt.Fprintf(w, "  digest seed %s: %s\n", s, wr.Digests[s])
		}
	}
}

func printStats(w io.Writer, stats []stat, tail string) {
	for _, s := range stats {
		note := ""
		if s.Name == "sim_turnaround_tail_kcyc" && tail != "" {
			note = " (" + tail + ")"
		}
		fmt.Fprintf(w, "  %-32s %-17s median %-12.6g q1 %-12.6g q3 %-12.6g n=%d%s\n",
			s.Name, s.Unit, s.Median, s.Q1, s.Q3, s.N, note)
	}
}
