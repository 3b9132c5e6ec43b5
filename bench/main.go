// Command bench is the informed-delivery benchmark: five workloads over
// real node.Node instances with shipped defaults on in-process
// transports (PipeNet / ShapedNet, no kernel sockets), every fetch
// verified byte-for-byte, every metric printed by name with its unit.
//
//	bash bench/run.sh                       all workloads, end-to-end metrics
//	bash bench/run.sh -trace 1              plus the traced pass and the layer replay
//	bash bench/run.sh -compare a.json b.json
//	bash bench/run.sh --workload pipe_full --seed 1 --seconds 20 --trace 0   (the driver's form)
//
// See README.md for the workloads, the metric definitions and how layer
// metrics are expected to move the end-to-end ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"
)

// A run sets a workload up at least minSetups times, and keeps going (to
// maxSetups) until the set-ups took setupBudget in all: setup_s is the
// median, so a sub-millisecond set-up (collab_swarm's plan expansion) is
// timed often enough to be steady. The last set-up is the one measured on.
const (
	minSetups   = 3
	maxSetups   = 51
	setupBudget = 200 * time.Millisecond
)

// workloadResult is one workload's row of a run.
type workloadResult struct {
	Params  *workload `json:"params"`
	Correct bool      `json:"correct"`
	// Attempted and Failed count fetches of the untraced pass.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	metricSet
}

// runResult is the result file: one full run of the benchmark.
type runResult struct {
	Seed       uint64            `json:"seed"`
	Commit     string            `json:"commit"`
	GoVersion  string            `json:"go_version"`
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Transport  string            `json:"transport"`
	Traced     bool              `json:"traced"`
	Workloads  []*workloadResult `json:"workloads"`
}

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds float64 // 0 = the workloads' fixed round counts
	trace   bool
	outDir  string
	toy     bool // test size (bench_test.go)
}

func main() {
	var (
		name     = flag.String("workload", "", "run only this workload and print one JSON line last (the driver's form)")
		seed     = flag.Uint64("seed", 1, "seed of everything generated: content bytes, encoded pools, link draws, Spec.Seed")
		seconds  = flag.Float64("seconds", 0, "measure each workload for this long (0 = its fixed round count)")
		trace    = flag.Int("trace", 0, "1 = also run the traced pass and the layer replay, write trace.json and pprof files")
		outDir   = flag.String("out", defaultOutDir(), "directory for result.json, trace.json and pprof files")
		compare  = flag.Bool("compare", false, "compare result files: -compare base.json[,base2.json...] new.json[,...]")
		manifest = flag.Bool("manifest", false, "print /BENCHMARK.json as this code defines it, and exit")
	)
	flag.Parse()
	if *manifest {
		data, err := json.MarshalIndent(benchmarkManifest(), "", "  ")
		if err != nil {
			fatal("%v", err)
		}
		fmt.Println(string(data))
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare base.json new.json")
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1)))
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *outDir}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatal("%v", err)
	}

	selected := workloads()
	if *name != "" {
		selected = nil
		for _, w := range workloads() {
			if w.Name == *name {
				selected = []*workload{w}
			}
		}
		if selected == nil {
			fatal("unknown workload %q", *name)
		}
	}

	res, err := runAll(cfg, selected)
	if err != nil {
		fatal("%v", err)
	}
	printTable(res)
	if err := writeJSON(filepath.Join(cfg.outDir, "result.json"), res); err != nil {
		fatal("%v", err)
	}
	if *name != "" {
		// The driver's line: end-to-end metrics untraced, per-layer traced.
		fmt.Println(driverLine(res.Workloads[0], cfg.trace))
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

// defaultOutDir is bench/out whether run from the repo root or from bench/.
func defaultOutDir() string {
	if _, err := os.Stat("bench/go.mod"); err == nil {
		return "bench/out"
	}
	return "out"
}

// runAll runs the selected workloads and gates the result: a workload
// that completed nothing, or a metric that is missing or not finite, is
// an error, never a row.
func runAll(cfg config, selected []*workload) (*runResult, error) {
	res := &runResult{
		Seed: cfg.seed, Commit: commit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Transport: "PipeNet / ShapedNet, no kernel sockets", Traced: cfg.trace,
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	for _, w := range selected {
		if cfg.toy {
			w = w.toy()
		}
		wr, err := runWorkload(cfg, w, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		if err := wr.gate(cfg.trace); err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		res.Workloads = append(res.Workloads, wr)
	}
	if tr != nil {
		if err := tr.write(filepath.Join(cfg.outDir, "trace.json")); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runWorkload sets one workload up (several times: setup_s is the
// median), runs the untraced pass every end-to-end metric comes from and,
// when tracing, the traced pass and the layer replay.
func runWorkload(cfg config, w *workload, tr *tracer) (*workloadResult, error) {
	var (
		setups []float64
		fe     *fetchEnv
		round  roundFn
		o      = passOpts{seconds: cfg.seconds, rounds: w.Rounds, warmup: true}
	)
	var spent time.Duration
	for len(setups) < minSetups || (spent < setupBudget && len(setups) < maxSetups) {
		if fe != nil {
			fe.close()
		}
		runtime.GC()
		start := time.Now()
		if w.Swarm != nil {
			se, err := setupSwarm(w, cfg.seed)
			if err != nil {
				return nil, err
			}
			round = func(_, seq int, tr *tracer) roundResult { return se.round(seq, tr) }
		} else {
			var err error
			if fe, err = setupFetch(w, cfg.seed); err != nil {
				return nil, err
			}
			round = fe.round
		}
		took := time.Since(start)
		spent += took
		setups = append(setups, took.Seconds())
	}
	if fe != nil {
		defer fe.close()
		o.wire, o.live = fe.wire.snapshot, fe.liveNodes
	}

	if cfg.trace && cfg.seconds > 0 {
		// A timed traced run splits its time: untraced pass, traced pass,
		// and the remainder for the layer replay.
		o.seconds = 0.4 * cfg.seconds
	}
	untraced := runPass(w, round, o)
	ms := untraced.derive(w)
	ms.put("setup_s", percentile(setups, 0.50), len(setups))
	if owed, chunks := fe.shapedDelay(); chunks > 0 {
		ms.put("faultnet.shaped_delay_ms_mean", float64(owed.Microseconds())/1e3/float64(chunks), int(chunks))
	}

	wr := &workloadResult{Params: w, metricSet: ms}
	for _, r := range untraced.rounds {
		for _, f := range r.fetches {
			wr.Attempted++
			if !f.ok {
				wr.Failed++
			}
		}
	}
	wr.Correct = wr.Failed == 0 && wr.Attempted > 0

	if cfg.trace {
		if err := tracedPass(cfg, w, fe, round, o, tr, wr); err != nil {
			return nil, err
		}
	}
	return wr, nil
}

// tracedPass repeats the workload with spans and gauge sampling on and a
// CPU profile running, overlays the per-layer metrics only it can give,
// then runs the layer replay. End-to-end metrics stay the untraced
// pass's; the goodput difference is trace.overhead_share.
func tracedPass(cfg config, w *workload, fe *fetchEnv, round roundFn, o passOpts, tr *tracer, wr *workloadResult) error {
	tr.setWorkload(w.Name)
	before := tr.count()
	o.tr, o.warmup = tr, false
	if cfg.seconds == 0 {
		o.rounds = max(w.Rounds/4, 2)
	}

	cpuProf, err := os.Create(filepath.Join(cfg.outDir, w.Name+".cpu.pprof"))
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(cpuProf); err != nil {
		cpuProf.Close()
		return err
	}
	traced := runPass(w, round, o)
	pprof.StopCPUProfile()
	if err := cpuProf.Close(); err != nil {
		return err
	}
	if err := writeAllocsProfile(filepath.Join(cfg.outDir, w.Name+".allocs.pprof")); err != nil {
		return err
	}

	tm := traced.derive(w)
	for name, v := range tm.Values {
		if _, have := wr.Values[name]; !have {
			wr.put(name, v, tm.Samples[name])
		}
	}
	base := wr.Values["goodput_MBps"]
	wr.put("trace.overhead_share", (base-tm.Values["goodput_MBps"])/base, len(traced.rounds))
	wr.put("trace.spans", float64(tr.count()-before), len(traced.rounds))

	if err := replayLayers(w, fe, cfg.seed, tr, wr); err != nil {
		return err
	}
	// A per-layer metric that does not apply to this workload reads 0.
	for _, d := range perLayer {
		if _, ok := wr.Values[d.Name]; !ok {
			wr.put(d.Name, 0, 0)
		}
	}
	return nil
}

func writeAllocsProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// gate rejects a row no comparison could trust.
func (wr *workloadResult) gate(traced bool) error {
	if wr.Attempted == 0 || wr.Attempted == wr.Failed {
		return fmt.Errorf("completed no fetch (%d attempted)", wr.Attempted)
	}
	defs := endToEnd
	if traced {
		defs = allMetrics()
	}
	for i, d := range defs {
		v, ok := wr.Values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s missing or not finite", d.Name)
		}
		if i < len(endToEnd) && v == 0 {
			return fmt.Errorf("end-to-end metric %s is 0", d.Name)
		}
	}
	return nil
}

// driverLine is the one JSON object the driver reads.
func driverLine(wr *workloadResult, traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, make(map[string]value)}
	for _, d := range defs {
		out.Metrics[d.Name] = value{wr.Values[d.Name], d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal("%v", err)
	}
	return string(line)
}

// printTable prints every metric of every workload by name with unit.
func printTable(res *runResult) {
	fmt.Printf("informed-delivery benchmark  seed=%d commit=%s %s nproc=%d GOMAXPROCS=%d\n",
		res.Seed, res.Commit, res.GoVersion, res.NumCPU, res.GOMAXPROCS)
	fmt.Printf("transport: %s; closed loop, one process\n", res.Transport)
	for _, wr := range res.Workloads {
		w := wr.Params
		fmt.Printf("\n== %s  k=%d block=%dB contents=%d clients=%d  fetches=%d failed=%d\n",
			w.Name, w.K, w.BlockSize, w.Contents, w.Clients, wr.Attempted, wr.Failed)
		for _, d := range allMetrics() {
			if v, ok := wr.Values[d.Name]; ok {
				fmt.Printf("  %-40s %14.6g %-6s n=%d\n", d.Name, v, d.Unit, wr.Samples[d.Name])
			}
		}
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// commit is the VCS revision stamped into the binary, when there is one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
