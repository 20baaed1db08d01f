// Command fleet runs the online, arrival-driven co-scheduler: jobs
// arrive over simulated time to a fleet of simulated GPUs, and an
// online dispatcher forms co-run groups from the live queue with the
// paper's interference-aware machinery.
//
// Usage:
//
//	fleet -devices 4 -apps 200 -arrivals poisson -rate 0.5 -nc 2 -policy ilp-smra -seed 1
//	fleet -fleet "2xGTX480,2xSmall-8SM" -policy ilp-smra -seed 1
//	fleet -devices 2 -arrivals bursty -rate 1 -burst-rate 6 -mean-on 15000 -mean-off 45000 -policy fcfs
//	fleet -arrivals trace -trace BLK@0,HS@1000,GUPS@2500 -policy ilp
//	fleet -devices 2 -slo preempt -latency-frac 0.3 -deadline 2000000 -aging 1 -csv jobs.csv
//	fleet -fleet "32xGTX480,32xSmall-8SM" -apps 100000 -arrivals bursty -engine modeled
//
// The fleet may be heterogeneous: -fleet takes a roster of
// COUNTxCONFIG elements (configs from internal/config: GTX480, Small),
// each device type gets its own calibration, and the dispatcher scores
// candidate groups with the matrix of the device type that will run
// them. When -fleet is unset, -devices N selects a homogeneous GTX480
// fleet as before.
//
// SLO classes: -latency-frac tags a share of the generated arrivals as
// latency-class jobs carrying a relative -deadline; -slo picks the
// dispatch discipline (off = class-blind, priority = latency jobs queue
// first, preempt = priority plus eviction of running batch groups when
// a waiting latency job would provably miss its deadline). -aging
// weights the ILP's pattern efficiencies by member wait so tail latency
// competes with raw packing. The summary then carries per-class
// wait/turnaround/slack percentiles, the deadline-miss rate and the
// eviction count; -csv additionally writes the per-job records for
// external plotting.
//
// Engine modes: -engine picks how dispatched groups complete. cycle
// (the default) simulates every group cycle-accurately; modeled
// computes completions analytically from solo profiles and the
// interference matrix with zero simulations — the warehouse-scale mode
// that runs 100k jobs on 64 devices in seconds; hybrid simulates the
// first -hybrid-warm occurrences of each (device type, composition) to
// calibrate the model and serves the rest from it, reporting the
// model's fidelity delta in the summary. With -engine modeled, -shards
// N models an N-way split fleet: the roster is partitioned into N event
// loops, fed by a deterministic router and run one after another. A
// given seed and shard count always reproduce the same bytes (-shards 1
// is the single loop), and N > 1 trades the global backlog for N split
// queues — a different schedule, never a faster run — echoed in a
// "shards:" header.
//
// Failure injection: -chaos "fail@CYCLE:DEV,drain@CYCLE:DEV,
// restore@CYCLE:DEV" executes a deterministic failure schedule mid-run
// (fail evicts the device's in-flight group with checkpointed progress
// and takes it out of placement; drain lets the flight retire but stops
// new dispatch; restore returns it to service), and -mtbf/-mttr swap
// the explicit trace for per-device exponential failure/repair draws
// from the run's seed. Either way the schedule is a pure function of
// the flags, so chaos runs keep the byte-identical determinism
// contract; the summary gains a "chaos" ledger line, and the time
// series gains failed_devices/draining_devices columns.
//
// Observability: -timeseries FILE samples the run every
// -sample-interval cycles (queue depth and class split, per-device
// occupancy and busy cycles, cumulative completions/misses/evictions,
// engine-mode counters) and writes the series as CSV — or JSON when
// FILE ends in .json — ready for plotting; see internal/obs for the
// column layout. cmd/sweep drives whole grids of these runs.
//
// The summary is deterministic: the same flags (and seed) produce
// byte-identical output, whatever the host machine is doing. The
// -timeseries output shares the contract: same seed, byte-identical
// series.
//
// Calibration (solo profiles + the all-pairs interference campaign) is
// cached on disk per device configuration exactly like cmd/experiments
// — set REPRO_CALIBRATION to choose the path (each device type gets
// its own file, "-<device>" inserted before the extension), or to "off"
// to disable.
// The group-execution memo is deliberately NOT persisted here, so
// device-count comparisons measure real simulation work.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/sched"
	"repro/internal/workloads"
)

func main() {
	log.SetFlags(0)
	devices := flag.Int("devices", 4, "number of simulated GPUs (homogeneous GTX480; ignored with -fleet)")
	rosterFlag := flag.String("fleet", "", "heterogeneous roster as COUNTxCONFIG,... (e.g. \"2xGTX480,2xSmall-8SM\")")
	apps := flag.Int("apps", 200, "number of arriving jobs (poisson/bursty)")
	arrivalsFlag := flag.String("arrivals", "poisson", "arrival process: poisson | bursty | trace | closed")
	rate := flag.Float64("rate", 0.5, "mean arrival rate in jobs per 1000 cycles")
	burstRate := flag.Float64("burst-rate", 0, "bursty ON-phase rate in jobs per 1000 cycles (0 = 4x -rate)")
	meanOn := flag.Float64("mean-on", 0, "bursty mean ON-phase length in cycles (0 = default)")
	meanOff := flag.Float64("mean-off", 0, "bursty mean OFF-phase length in cycles (0 = default)")
	nc := flag.Int("nc", 2, "co-run group size per device")
	policyFlag := flag.String("policy", "ilp-smra", "serial | fcfs | profile | ilp | ilp-smra")
	seed := flag.Uint64("seed", 1, "arrival-stream seed")
	window := flag.Int("window", 0, fmt.Sprintf("windowed-ILP queue prefix, at most %d (0 = adaptive from queue depth and class mix)", fleet.MaxWindow))
	greedyBelow := flag.Int("greedy-below", 0, "queue depth under which ILP policies dispatch greedily (0 = 2*nc)")
	traceFlag := flag.String("trace", "", "explicit arrivals as NAME@CYCLE,... (with -arrivals trace)")
	sloFlag := flag.String("slo", "off", "SLO dispatch: off | priority | preempt")
	latencyFrac := flag.Float64("latency-frac", 0, "fraction of generated jobs tagged latency-class (poisson/bursty)")
	deadline := flag.Uint64("deadline", 0, "relative deadline in cycles for generated latency jobs (0 = default)")
	aging := flag.Float64("aging", 0, "wait-time aging weight for the ILP policies (0 = off)")
	csvPath := flag.String("csv", "", "also write the per-job records as CSV to this file")
	engineFlag := flag.String("engine", "cycle", "completion engine: cycle | modeled | hybrid")
	hybridWarm := flag.Int("hybrid-warm", 0, "cycle-accurate runs per group composition before the hybrid engine trusts the model (0 = default)")
	shards := flag.Int("shards", 0, "partition the roster into this many event loops, run sequentially, for -engine modeled (0/1 = single loop; same seed and count reproduce the same bytes)")
	closedFlag := flag.Bool("closed", false, "closed-loop clients replace the arrival stream (equivalent to -arrivals closed)")
	clients := flag.Int("clients", 8, "closed-loop client pools, each with one request outstanding (with -closed)")
	requests := flag.Int("requests", 0, "requests per client (0 = default, with -closed)")
	think := flag.Float64("think", 0, "mean client think time in cycles between requests (with -closed)")
	timeoutFlag := flag.Uint64("timeout", 0, "per-request patience in cycles; a submission queued longer is abandoned (0 = never, with -closed)")
	retries := flag.Int("retries", 0, "resubmissions allowed after a rejection or abandonment (with -closed)")
	backoffFlag := flag.Uint64("backoff", 0, "base retry backoff in cycles, doubling per attempt (0 = default, with -closed)")
	admission := flag.Uint64("admission", 0, "admission bound: refuse submissions whose predicted wait exceeds this many cycles (0 = off)")
	admissionDegrade := flag.Bool("admission-degrade", false, "degrade over-bound latency submissions to batch instead of rejecting them (with -admission)")
	admissionModeled := flag.Bool("admission-modeled", false, "predict waits from the interference-aware backlog estimate instead of the solo-work sum (with -admission)")
	chaosFlag := flag.String("chaos", "", "failure schedule as KIND@CYCLE:DEV,... with kinds fail|drain|restore (empty = off)")
	mtbf := flag.Float64("mtbf", 0, "chaos generator: mean cycles between failures per device (0 = off; needs -mttr)")
	mttr := flag.Float64("mttr", 0, "chaos generator: mean outage length in cycles (with -mtbf)")
	chaosHorizon := flag.Uint64("chaos-horizon", 0, "chaos generator schedule bound in cycles (0 = default, with -mtbf)")
	autoscaleFlag := flag.String("autoscale", "", "elastic roster bounds as MIN:MAX active devices (empty = off)")
	scaleHigh := flag.Float64("scale-high", 0, "scale-up queue-pressure watermark in waiting jobs per active device (0 = default, with -autoscale)")
	scaleLow := flag.Float64("scale-low", 0, "scale-down watermark (0 = default, with -autoscale)")
	provisionDelay := flag.Uint64("provision-delay", 0, "cycles between a scale-up decision and the device accepting work (0 = default, with -autoscale)")
	timeseries := flag.String("timeseries", "", "write the per-interval time series to this file (CSV, or JSON with a .json extension)")
	sampleInterval := flag.Uint64("sample-interval", 100_000, "time-series sampling interval in cycles (with -timeseries)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	// writeHeap snapshots the heap to -memprofile (no-op when unset); it
	// runs at normal exit and on the fatal paths, so a failed run still
	// leaves its profile behind.
	writeHeap := func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Print(err)
			return
		}
		runtime.GC() // flush unreached allocations so the profile shows live heap
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Print(err)
		}
		if err := f.Close(); err != nil {
			log.Print(err)
		}
	}
	// log.Fatal's os.Exit skips deferred profile flushing, so every
	// fatal below goes through fail instead.
	fail := func(v ...any) {
		pprof.StopCPUProfile()
		writeHeap()
		log.Fatal(v...)
	}
	failf := func(format string, v ...any) {
		pprof.StopCPUProfile()
		writeHeap()
		log.Fatalf(format, v...)
	}

	kind, err := fleet.ParseArrivalKind(*arrivalsFlag)
	if err != nil {
		fail(err)
	}
	policy, err := sched.ParsePolicy(*policyFlag)
	if err != nil {
		fail(err)
	}
	// Reject flags the chosen arrival process or policy would silently
	// ignore.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["devices"] && *rosterFlag != "" {
		fail("fleet: -devices is ignored with -fleet; size the roster instead (e.g. \"4xGTX480\")")
	}
	// Closed-loop traffic can be asked for by flag or by arrival kind;
	// either way the clients pace themselves, so the open-stream shape
	// flags are rejected rather than silently ignored (and vice versa).
	closed := *closedFlag || kind == fleet.ClosedLoop
	if set["closed"] && set["arrivals"] && kind != fleet.ClosedLoop {
		failf("fleet: -closed conflicts with -arrivals %v; closed-loop runs generate their own traffic", kind)
	}
	if closed {
		kind = fleet.ClosedLoop
		for _, name := range []string{"rate", "apps", "trace", "burst-rate", "mean-on", "mean-off"} {
			if set[name] {
				failf("fleet: -%s has no effect with closed-loop traffic; -clients and -think shape the load", name)
			}
		}
	} else {
		for _, name := range []string{"clients", "requests", "think", "timeout", "retries", "backoff"} {
			if set[name] {
				failf("fleet: -%s only applies to closed-loop traffic (-closed)", name)
			}
		}
	}
	if set["admission-degrade"] && *admission == 0 {
		fail("fleet: -admission-degrade needs -admission to set the bound")
	}
	if set["admission-modeled"] && *admission == 0 {
		fail("fleet: -admission-modeled needs -admission to set the bound")
	}
	if *chaosFlag != "" && (*mtbf > 0 || *mttr > 0) {
		fail("fleet: -chaos conflicts with -mtbf/-mttr; pick the explicit trace or the generator")
	}
	if (*mtbf > 0) != (*mttr > 0) {
		fail("fleet: -mtbf and -mttr must be set together")
	}
	if set["chaos-horizon"] && *mtbf == 0 {
		fail("fleet: -chaos-horizon needs -mtbf/-mttr to enable the generator")
	}
	autoscale, err := fleet.ParseAutoscale(*autoscaleFlag)
	if err != nil {
		fail(err)
	}
	if !autoscale.Enabled {
		for _, name := range []string{"scale-high", "scale-low", "provision-delay"} {
			if set[name] {
				failf("fleet: -%s needs -autoscale to enable the elastic roster", name)
			}
		}
	}
	if kind != fleet.Bursty {
		for _, name := range []string{"burst-rate", "mean-on", "mean-off"} {
			if set[name] {
				failf("fleet: -%s only applies to -arrivals bursty (got %v)", name, kind)
			}
		}
	}
	if kind == fleet.Trace {
		for _, name := range []string{"rate", "apps"} {
			if set[name] {
				failf("fleet: -%s has no effect with -arrivals trace; the trace stands on its own", name)
			}
		}
	} else if set["trace"] {
		failf("fleet: -trace requires -arrivals trace (got %v)", kind)
	}
	if policy != sched.ILP && policy != sched.ILPSMRA {
		for _, name := range []string{"greedy-below", "window", "aging"} {
			if set[name] {
				failf("fleet: -%s only applies to the ILP policies (got %v)", name, policy)
			}
		}
	}
	engine, err := fleet.ParseEngine(*engineFlag)
	if err != nil {
		fail(err)
	}
	if set["hybrid-warm"] && engine != fleet.Hybrid {
		failf("fleet: -hybrid-warm only applies to -engine hybrid (got %v)", engine)
	}
	if set["shards"] && *shards > 1 && engine != fleet.Modeled {
		failf("fleet: -shards only applies to -engine modeled (got %v)", engine)
	}
	if set["sample-interval"] {
		if *timeseries == "" {
			fail("fleet: -sample-interval needs -timeseries to write the series somewhere")
		}
		if *sampleInterval == 0 {
			fail("fleet: -sample-interval must be positive")
		}
	}
	slo, err := fleet.ParseSLOMode(*sloFlag)
	if err != nil {
		fail(err)
	}
	if kind == fleet.Trace {
		for _, name := range []string{"latency-frac", "deadline"} {
			if set[name] {
				failf("fleet: -%s only applies to generated arrivals; tag trace entries as NAME@CYCLE!DEADLINE instead", name)
			}
		}
	} else if set["deadline"] && *latencyFrac == 0 {
		fail("fleet: -deadline needs -latency-frac to generate latency jobs")
	}
	acfg := fleet.ArrivalConfig{Kind: kind, Seed: *seed}
	var arrivals []fleet.Arrival
	switch kind {
	case fleet.ClosedLoop:
		// Closed-loop runs generate their own submissions inside Run;
		// there is no arrival stream to materialize.
	case fleet.Trace:
		if *traceFlag == "" {
			fail("fleet: -arrivals trace needs -trace NAME@CYCLE[!DEADLINE],...")
		}
		// Jobs/Rate stay zero: a trace stands on its own.
		acfg.Trace, err = fleet.ParseTrace(*traceFlag)
		if err != nil {
			fail(err)
		}
		arrivals, err = acfg.Generate(workloads.Names)
		if err != nil {
			fail(err)
		}
	default:
		acfg.Jobs = *apps
		acfg.Rate = *rate
		acfg.BurstRate = *burstRate
		acfg.MeanOn = *meanOn
		acfg.MeanOff = *meanOff
		acfg.LatencyFrac = *latencyFrac
		acfg.Deadline = *deadline
		arrivals, err = acfg.Generate(workloads.Names)
		if err != nil {
			fail(err)
		}
	}

	spec := *rosterFlag
	if spec == "" {
		spec = fmt.Sprintf("%dxGTX480", *devices)
	}
	entries, err := fleet.ParseRoster(spec)
	if err != nil {
		fail(err)
	}
	start := time.Now()
	log.Printf("calibrating roster %s (cached per device config) ...", spec)
	roster, err := fleet.BuildRoster(entries, workloads.All())
	if err != nil {
		fail(err)
	}
	log.Printf("roster ready in %v", time.Since(start).Round(time.Second))

	cfg := fleet.Config{
		Devices:     roster,
		NC:          *nc,
		Policy:      policy,
		Window:      *window,
		GreedyBelow: *greedyBelow,
		Aging:       *aging,
		SLO:         slo,
		Engine:      engine,
		HybridWarm:  *hybridWarm,
		Shards:      *shards,
	}
	if *timeseries != "" {
		cfg.SampleEvery = *sampleInterval
	}
	if closed {
		cfg.Closed = fleet.ClosedConfig{
			Enabled: true, Clients: *clients, Requests: *requests,
			Think: *think, Timeout: *timeoutFlag,
			Retries: *retries, Backoff: *backoffFlag,
			LatencyFrac: *latencyFrac, Deadline: *deadline,
			Seed: *seed, Universe: workloads.Names,
		}
	}
	if *admission > 0 {
		cfg.Admission = fleet.AdmissionConfig{Enabled: true, MaxWait: *admission, Degrade: *admissionDegrade, Modeled: *admissionModeled}
	}
	if autoscale.Enabled {
		autoscale.High = *scaleHigh
		autoscale.Low = *scaleLow
		autoscale.Delay = *provisionDelay
		cfg.Autoscale = autoscale
	}
	if *chaosFlag != "" {
		trace, err := fleet.ParseChaos(*chaosFlag)
		if err != nil {
			fail(err)
		}
		cfg.Chaos = fleet.ChaosConfig{Enabled: true, Trace: trace}
	} else if *mtbf > 0 {
		cfg.Chaos = fleet.ChaosConfig{Enabled: true, MTBF: *mtbf, MTTR: *mttr, Horizon: *chaosHorizon, Seed: *seed}
	}
	f, err := fleet.New(cfg)
	if err != nil {
		fail(err)
	}
	runStart := time.Now()
	res, err := f.Run(arrivals)
	if err != nil {
		fail(err)
	}
	log.Printf("fleet run finished in %v wall-clock", time.Since(runStart).Round(time.Millisecond))
	switch kind {
	case fleet.ClosedLoop:
		// Echo the resolved closed-loop parameters (defaults filled in).
		rc := f.Config().Closed
		fmt.Printf("arrivals: closed clients=%d requests=%d think=%.0f timeout=%d retries=%d backoff=%d seed=%d\n",
			rc.Clients, rc.Requests, rc.Think, rc.Timeout, rc.Retries, rc.Backoff, rc.Seed)
	case fleet.Trace:
		fmt.Printf("arrivals: %v (%d entries)\n", kind, len(acfg.Trace))
	case fleet.Bursty:
		r := acfg.Resolved()
		fmt.Printf("arrivals: %v rate=%.2f/kcycle burst-rate=%.2f/kcycle mean-on=%.0f mean-off=%.0f seed=%d\n",
			kind, r.Rate, r.BurstRate, r.MeanOn, r.MeanOff, *seed)
	default:
		fmt.Printf("arrivals: %v rate=%.2f/kcycle seed=%d\n", kind, *rate, *seed)
	}
	if ac := f.Config().Admission; ac.Enabled {
		mode := "reject"
		if ac.Degrade {
			mode = "degrade"
		}
		if ac.Modeled {
			mode += "-modeled"
		}
		fmt.Printf("admission: mode=%s max-wait=%d\n", mode, ac.MaxWait)
	}
	if as := f.Config().Autoscale; as.Enabled {
		fmt.Printf("autoscale: min=%d max=%d high=%g low=%g delay=%d epoch=%d\n",
			as.Min, as.Max, as.High, as.Low, as.Delay, as.Epoch)
	}
	if ch := f.Config().Chaos; ch.Enabled {
		if len(ch.Trace) > 0 {
			fmt.Printf("chaos: trace %s\n", fleet.FormatChaos(ch.Trace))
		} else {
			fmt.Printf("chaos: mtbf=%g mttr=%g horizon=%d seed=%d\n", ch.MTBF, ch.MTTR, ch.Horizon, ch.Seed)
		}
	}
	// The SLO header echoes the generation parameters actually used;
	// trace runs carry per-entry deadlines, so only the mode applies.
	switch {
	case kind == fleet.Trace && slo.Enabled:
		fmt.Printf("slo: mode=%s aging=%g (per-entry deadlines)\n", strings.ToLower(*sloFlag), *aging)
	case kind == fleet.ClosedLoop && (slo.Enabled || *latencyFrac > 0):
		fmt.Printf("slo: mode=%s latency-frac=%.2f deadline=%d aging=%g\n",
			strings.ToLower(*sloFlag), *latencyFrac, f.Config().Closed.Deadline, *aging)
	case slo.Enabled || *latencyFrac > 0:
		fmt.Printf("slo: mode=%s latency-frac=%.2f deadline=%d aging=%g\n",
			strings.ToLower(*sloFlag), *latencyFrac, acfg.Resolved().Deadline, *aging)
	}
	// The shard count shapes the simulated schedule (the router splits
	// the backlog K ways), so artifacts must say which K produced them;
	// at 0/1 the line is omitted and output matches previous releases.
	if res.Shards > 1 {
		fmt.Printf("shards: %d event loops, epoch=%d cycles\n", res.Shards, f.Config().ShardEpoch)
	}
	fmt.Print(res.Summary())
	if *csvPath != "" {
		out, err := os.Create(*csvPath)
		if err != nil {
			fail(err)
		}
		if err := res.WriteJobsCSV(out); err != nil {
			fail(err)
		}
		if err := out.Close(); err != nil {
			fail(err)
		}
		log.Printf("wrote per-job records to %s", *csvPath)
	}
	if *timeseries != "" {
		out, err := os.Create(*timeseries)
		if err != nil {
			fail(err)
		}
		if strings.HasSuffix(*timeseries, ".json") {
			err = res.Series.WriteJSON(out)
		} else {
			err = res.Series.WriteCSV(out)
		}
		if err != nil {
			fail(err)
		}
		if err := out.Close(); err != nil {
			fail(err)
		}
		log.Printf("wrote %d-sample time series to %s", res.Series.Rows(), *timeseries)
	}
	writeHeap()
}
