package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// snap is a point-in-time reading of the process's host costs.
type snap struct {
	wall    time.Time
	cpu     float64 // user+sys seconds, all threads
	alloc   uint64  // cumulative bytes allocated
	gcs     uint32
	pauseNs uint64
}

func take() snap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snap{wall: time.Now(), cpu: cpuSeconds(), alloc: ms.TotalAlloc, gcs: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cost is the difference between two snaps.
type cost struct {
	Wall    float64 `json:"wall_s"`
	CPU     float64 `json:"cpu_s"`
	AllocMB float64 `json:"alloc_mb"`
	GCs     uint32  `json:"gcs"`
	PauseMs float64 `json:"gc_pause_ms"`
}

func since(a, b snap) cost {
	return cost{
		Wall:    b.wall.Sub(a.wall).Seconds(),
		CPU:     b.cpu - a.cpu,
		AllocMB: float64(b.alloc-a.alloc) / (1 << 20),
		GCs:     b.gcs - a.gcs,
		PauseMs: float64(b.pauseNs-a.pauseNs) / 1e6,
	}
}

// span is one timed call into a layer's public function. Spans of one
// op share Op; Parent indexes the enclosing span, -1 for roots: an op's
// "setup" and "run" phases, and calls made after the run.
type span struct {
	Name   string  `json:"name"`
	Arg    string  `json:"arg,omitempty"`
	Op     int     `json:"op"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"` // since the tracer started
	End    float64 `json:"end_s"`
	Cost   cost    `json:"cost"`
	Cycles uint64  `json:"sim_cycles,omitempty"`

	begin snap
}

// tracer keeps spans in memory for the traced run. A nil tracer records
// nothing and costs one pointer check per call, so untraced runs
// measure the code as users run it.
type tracer struct {
	t0    time.Time
	op    int
	stack []int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name, arg string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	s := span{Name: name, Arg: arg, Op: t.op, Parent: parent, begin: take()}
	s.Start = s.begin.wall.Sub(t.t0).Seconds()
	t.stack = append(t.stack, len(t.spans))
	t.spans = append(t.spans, s)
}

// end closes the innermost span, recording the simulated cycles the
// call produced (0 when it simulates nothing).
func (t *tracer) end(cycles uint64) {
	if t == nil {
		return
	}
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[i]
	now := take()
	s.End = now.wall.Sub(t.t0).Seconds()
	s.Cost = since(s.begin, now)
	s.Cycles = cycles
}

// unwind ends every open span, so an op that returns early on an error
// leaves no span without an end.
func (t *tracer) unwind() {
	for t != nil && len(t.stack) > 0 {
		t.end(0)
	}
}

// opSpans returns the spans of the current op.
func (t *tracer) opSpans() []span {
	var out []span
	for _, s := range t.spans {
		if s.Op == t.op {
			out = append(out, s)
		}
	}
	return out
}

// opSelf sums the self time of the current op's "setup" and "run"
// spans: the part of the op no layer span covers.
func (t *tracer) opSelf() float64 {
	self := 0.0
	for i, s := range t.spans {
		if s.Op == t.op && (s.Name == "setup" || s.Name == "run") {
			self += selfTime(t.spans, i)
		}
	}
	return self
}

// named sums the costs and cycles of an op's spans with the given name.
func named(spans []span, name string) (cost, uint64) {
	var c cost
	var cycles uint64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		c.Wall += s.Cost.Wall
		c.CPU += s.Cost.CPU
		c.AllocMB += s.Cost.AllocMB
		c.GCs += s.Cost.GCs
		c.PauseMs += s.Cost.PauseMs
		cycles += s.Cycles
	}
	return c, cycles
}

// selfTime is a span's duration minus the time its children cover.
// Children of one span run one after another, so their durations add.
func selfTime(spans []span, i int) float64 {
	self := spans[i].End - spans[i].Start
	for _, s := range spans {
		if s.Parent == i {
			self -= s.End - s.Start
		}
	}
	return self
}

// writeChromeTrace writes spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto). Each workload is a process and each op
// a thread, so an op's spans stack on one row.
func writeChromeTrace(path string, runs []tracedRun) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var events []event
	for pid, r := range runs {
		events = append(events, event{Name: "process_name", Ph: "M", Pid: pid + 1, Args: map[string]any{"name": r.Workload}})
		for i, s := range r.Spans {
			parent := ""
			if s.Parent >= 0 {
				parent = r.Spans[s.Parent].Name
			}
			events = append(events, event{
				Name: s.Name, Ph: "X", Ts: s.Start * 1e6, Dur: (s.End - s.Start) * 1e6,
				Pid: pid + 1, Tid: s.Op,
				Args: map[string]any{
					"workload": r.Workload, "op": s.Op, "parent": parent, "arg": s.Arg,
					"cpu_s": s.Cost.CPU, "alloc_mb": s.Cost.AllocMB, "gcs": s.Cost.GCs,
					"gc_pause_ms": s.Cost.PauseMs, "sim_cycles": s.Cycles,
					"self_s": selfTime(r.Spans, i),
				},
			})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedRun is the span list of one traced workload run.
type tracedRun struct {
	Workload string `json:"workload"`
	Spans    []span `json:"spans"`
}
