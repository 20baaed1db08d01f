package fleet

import (
	"crypto/sha256"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/rng"
)

// corpusRuns is how many random configurations the differential corpus
// renders.
const corpusRuns = 400

// corpusInputs draws one run's fuzzConfig inputs from r, weighted so
// that the matcher, its aging path and the control surfaces all see
// traffic: half the runs are closed-loop, each control bit is set three
// times in four, and half the runs are forced to preemptive SLO
// dispatch and, independently, half to an ILP policy (about two thirds
// of the runs end up with each).
func corpusInputs(r *rng.Stream) (seed uint64, roster, traffic, nc, policy, slo, controls uint8, chaos uint32) {
	seed = r.Next()
	v := r.Next()
	roster, traffic, nc = uint8(v), uint8(v>>8)&0x7f, uint8(v>>16)
	if v>>24&1 != 0 {
		traffic |= 0x80
	}
	policy = uint8(v >> 32)
	if v>>25&1 != 0 {
		policy = 3 + policy%2
	}
	slo = uint8(v >> 40)
	if v>>26&1 != 0 {
		slo = 2
	}
	w := r.Next()
	controls = uint8(w) | uint8(w>>8)
	chaos = uint32(w >> 32)
	return
}

// writeRun renders everything a run reports to w: the summary, the
// eviction trace, the series CSV and every job record's exported
// fields, or the run's error.
func writeRun(t *testing.T, w io.Writer, res Result, err error) {
	if err != nil {
		fmt.Fprintf(w, "error: %v\n", err)
		return
	}
	io.WriteString(w, res.Summary()+res.EvictionTrace())
	if res.Series != nil {
		if err := res.Series.WriteCSV(w); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range res.Jobs {
		fmt.Fprintf(w, "%d %s %d %d %d %d %d %d %d %d %d %d\n", j.ID, j.Name, j.Deadline,
			j.Arrival, j.Dispatch, j.Complete, j.Device, j.Class, j.SLO, j.Outcome, j.Evictions, j.Attempts)
	}
}

// TestDifferentialCorpus is the fleet's differential safety net. It
// draws corpusRuns seeded fuzzConfig runs (corpusInputs) and writes one
// line per run, its inputs and a digest of everything the run reports
// (writeRun), to compare against testdata/corpus.golden. A change meant
// to keep every output must pass it as it stands; one meant to move
// outputs re-captures it with
//
//	go test ./internal/fleet -run DifferentialCorpus -update
//
// and the golden's diff names the configurations that moved.
func TestDifferentialCorpus(t *testing.T) {
	r := rng.NewStream(0xC0A9B5)
	var b strings.Builder
	for i := 0; i < corpusRuns; i++ {
		seed, roster, traffic, nc, policy, slo, controls, chaos := corpusInputs(r)
		fmt.Fprintf(&b, "%d %#x %#x %#x %#x %#x %#x %#x %#x ", i, seed, roster, traffic, nc, policy, slo, controls, chaos)
		cfg, arr, _ := fuzzConfig(t, seed, roster, traffic, nc, policy, slo, controls, chaos)
		f, err := New(cfg)
		if err != nil {
			b.WriteString("invalid\n")
			continue
		}
		res, err := f.Run(arr)
		h := sha256.New()
		writeRun(t, h, res, err)
		fmt.Fprintf(&b, "%x\n", h.Sum(nil)[:8])
	}
	compareGolden(t, "corpus.golden", b.String())
}
