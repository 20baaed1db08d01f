package main

import (
	"fmt"
	"runtime"
	"strconv"
	"time"
)

// minOps is the fewest ops a run makes, however long they take. Op i
// uses seed+i/2, so each op seed runs twice in a row and the second op
// checks that the first one's digest repeats.
const minOps = 2

// runDetail is everything one run measured. A set-mode parent reads it
// from its children; one run is one process, so maxrss_mb belongs to
// that workload alone and process-wide memos start cold.
type runDetail struct {
	Workload  string               `json:"workload"`
	Seed      uint64               `json:"seed"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Errors    []string             `json:"errors,omitempty"`
	Samples   map[string][]float64 `json:"samples"`
	Layers    map[string][]float64 `json:"layers,omitempty"`
	Digests   map[string]string    `json:"digests"` // op seed -> digest
	// BySeed holds perSeed metrics: metric -> op seed -> value.
	BySeed map[string]map[string]float64 `json:"by_seed,omitempty"`
	Tail   string                        `json:"tail,omitempty"`
	Spans  []span                        `json:"spans,omitempty"`
}

// run makes ops of w for about seconds, timing each: after minOps it
// starts another op only if one more op of the mean length so far ends
// within seconds. A non-nil tracer records spans and per-layer metrics.
func run(w *workload, e *env, seed uint64, seconds float64, tr *tracer) *runDetail {
	d := &runDetail{
		Workload: w.name, Seed: seed,
		Samples: map[string][]float64{}, Digests: map[string]string{},
		BySeed: map[string]map[string]float64{},
	}
	if tr != nil {
		d.Layers = map[string][]float64{}
	}
	start := time.Now()
	for i := 0; i < minOps || time.Since(start).Seconds()*float64(i+1)/float64(i) <= seconds; i++ {
		opSeed := seed + uint64(i/2)
		d.Attempted++
		if err := d.op(w, e, i, opSeed, tr); err != nil {
			d.Failed++
			d.Errors = append(d.Errors, fmt.Sprintf("op %d (seed %d): %v", i, opSeed, err))
		}
	}
	d.Samples["maxrss_mb"] = []float64{maxRSSMB()}
	d.Samples["error_rate"] = []float64{float64(d.Failed) / float64(d.Attempted)}
	if tr != nil {
		d.Spans = tr.spans
	}
	return d
}

// op makes and records one op: it sets up the op's inputs, timed as
// setup_s, then runs them.
func (d *runDetail) op(w *workload, e *env, i int, seed uint64, tr *tracer) error {
	runtime.GC()
	if tr != nil {
		tr.op = i
		defer tr.unwind()
	}
	tr.begin("setup", w.name)
	start := time.Now()
	in, err := w.setup(e, seed, tr)
	setup := time.Since(start).Seconds()
	tr.end(0)
	if err != nil {
		return err
	}
	runtime.GC()
	c := &opClock{tr: tr}
	c.start()
	o, err := w.run(in, c)
	if err != nil {
		return err
	}
	digest, err := w.verify(in, o)
	if err != nil {
		return err
	}
	key := strconv.FormatUint(seed, 10)
	if prev, ok := d.Digests[key]; ok && prev != digest {
		return fmt.Errorf("digest %s differs from %s of the same seed earlier in this run", digest, prev)
	}
	d.Digests[key] = digest
	r := c.cost()
	d.Samples["setup_s"] = append(d.Samples["setup_s"], setup)
	d.Samples["run_s"] = append(d.Samples["run_s"], r.Wall)
	d.Samples["cpu_s"] = append(d.Samples["cpu_s"], r.CPU)
	d.Samples["alloc_mb"] = append(d.Samples["alloc_mb"], r.AllocMB)
	for _, name := range w.metrics {
		d.Samples[name] = append(d.Samples[name], o.e2e[name])
		if def, _ := lookup(endToEnd, name); def.perSeed {
			if d.BySeed[name] == nil {
				d.BySeed[name] = map[string]float64{}
			}
			d.BySeed[name][key] = o.e2e[name]
		}
	}
	d.Tail = o.tail
	if tr != nil {
		o.layers["trace.run_s"] = r.Wall
		o.layers["op.self_s"] = tr.opSelf()
		for _, m := range perLayer {
			d.Layers[m.Name] = append(d.Layers[m.Name], o.layers[m.Name])
		}
	}
	return nil
}
