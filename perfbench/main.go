// Command perfbench is the cracking store's benchmark: four closed-loop
// workloads driven through the store's public entry points (crack,
// engine, serve, netserve + wire, client), an answer check for every
// workload, a layer ladder and a traced run that splits time by layer.
//
// Run it through run.py, which builds it and selects the metrics
// BENCHMARK.json names:
//
//	python3 perfbench/run.py --workload warm-remote --seed 1 --seconds 10 --trace 0
//
// The program prints a human-readable report and, as its last line,
// "RESULT " followed by a JSON object with every metric it measured.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported figure with the number of samples behind it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int64   `json:"samples"`
}

// report is what one run of a workload yields.
type report struct {
	e2e       map[string]metric
	layer     map[string]metric
	attempted int64
	failed    int64
	wrong     int64 // answers that disagreed with the reference
	notes     []string
	sizes     map[string]any
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}, sizes: map[string]any{}}
}

func (r *report) setE2E(name, unit string, v float64, n int64) {
	r.e2e[name] = metric{Value: v, Unit: unit, Samples: n}
}

func (r *report) setLayer(name, unit string, v float64, n int64) {
	r.layer[name] = metric{Value: v, Unit: unit, Samples: n}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// runCfg is what a workload needs from the command line.
type runCfg struct {
	seed    int64
	window  time.Duration // the whole measured window
	reps    int           // fresh set-ups a serving workload splits the window across
	workdir string        // scratch space for durable stores, inside the checkout
}

// repSeed is the seed of repetition r's inputs: every repetition draws
// its own relation, pool and traffic.
func (c runCfg) repSeed(r int) int64 { return c.seed*1009 + int64(r) }

func (c runCfg) repWindow() time.Duration { return c.window / time.Duration(c.reps) }

// untracedReps is how many repetitions an untraced run measures. A
// serving workload's layout refines as it runs, and with it throughput
// and latency drift; short repetitions from fresh set-ups, each on new
// inputs, keep one run's trajectory from deciding its figures.
const untracedReps = 4

type workloadFunc func(cfg runCfg, tr *tracer) (*report, error)

var workloads = map[string]workloadFunc{
	"paper-seq":      runPaperSeq,
	"snap-mixed":     runSnapMixed,
	"warm-remote":    runWarmRemote,
	"durable-remote": runDurableRemote,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: paper-seq, snap-mixed, warm-remote or durable-remote")
		seed    = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds = flag.Int("seconds", 10, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
		workdir = flag.String("workdir", ".bench_build/work", "scratch directory for durable stores")
		commit  = flag.String("commit", "unknown", "source revision, recorded in the provenance line")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(mustMkdir(*workdir), "run-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)

	window := time.Duration(*seconds) * time.Second
	var rep *report
	if *trace == 0 {
		rep, err = run(runCfg{seed: *seed, window: window, reps: untracedReps, workdir: dir}, nil)
	} else {
		rep, err = tracedRun(run, runCfg{seed: *seed, window: window / 2, reps: 1, workdir: dir}, *name)
	}
	if err != nil {
		os.RemoveAll(dir)
		fatal(err)
	}
	printReport(*name, *seed, *trace, *commit, dir, rep)
	if rep.wrong > 0 {
		os.RemoveAll(dir)
		os.Exit(1)
	}
}

// tracedRun measures the workload untraced and then traced, for half the
// window each, each on one fresh set-up, and adds the ladder. Per-layer
// metrics come from the traced half; trace.overhead_frac compares the
// two halves' throughput.
func tracedRun(run workloadFunc, cfg runCfg, name string) (*report, error) {
	plain, err := run(cfg, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	rep, err := run(cfg, tr)
	if err != nil {
		return nil, err
	}
	a := tr.analyze()
	layerFromTrace(rep, a)
	rep.notef("trace: %s", a)
	spans := filepath.Join(filepath.Dir(cfg.workdir), "trace-"+name+".jsonl")
	if err := writeSpans(spans, a.spans); err != nil {
		return nil, err
	}
	rep.notef("spans written to %s", spans)
	base, traced := plain.e2e["ops_per_s"], rep.e2e["ops_per_s"]
	rep.setLayer("trace.overhead_frac", "fraction", 1-traced.Value/base.Value, traced.Samples)
	rep.notef("untraced half: %.0f ops/s, traced half: %.0f ops/s", base.Value, traced.Value)
	if err := ladder(rep, cfg.seed); err != nil {
		return nil, err
	}
	rep.attempted += plain.attempted
	rep.failed += plain.failed
	rep.wrong += plain.wrong
	return rep, nil
}

// layerFromTrace turns the joined spans into per-layer self times.
func layerFromTrace(rep *report, a traceReport) {
	for _, l := range []string{"client", "net", "serve", "crack"} {
		ds := a.selfRead[l]
		rep.setLayer(l+".self_p50_us", "us", p50us(ds), int64(len(ds)))
		rep.setLayer(l+".self_p99_us", "us", p99us(ds), int64(len(ds)))
	}
	eng := a.selfRead["engine"]
	rep.setLayer("engine.read_self_p50_us", "us", p50us(eng), int64(len(eng)))
	rep.setLayer("engine.read_self_p99_us", "us", p99us(eng), int64(len(eng)))
	rep.setLayer("engine.write_self_p50_us", "us", p50us(a.engWrites), int64(len(a.engWrites)))
	stage := func(metric, name string) {
		ds := a.stage[name]
		rep.setLayer(metric, "us", p50us(ds), int64(len(ds)))
	}
	stage("serve.queue_p50_us", "queue")
	stage("net.encode_p50_us", "encode")
	stage("client.send_p50_us", "client_send")
	stage("client.recv_p50_us", "client_recv")
}

func printReport(name string, seed int64, trace int, commit, dir string, rep *report) {
	fmt.Printf("perfbench %s seed=%d trace=%d\n", name, seed, trace)
	fsync := any("none (no WAL)")
	if v, ok := rep.sizes["fsync"]; ok {
		fsync = v
	}
	prov := map[string]any{
		"workload":   name,
		"seed":       seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"fsync":      fsync,
		"fs":         fsType(dir),
		"sizes":      rep.sizes,
		"unmeasured": "internal/shard, partial sideways engine",
	}
	pj, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", pj)
	for _, n := range rep.notes {
		fmt.Printf("note %s\n", n)
	}
	show := func(kind string, ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := ms[n]
			fmt.Printf("%s %-28s %14.6g %-8s n=%d\n", kind, n, m.Value, m.Unit, m.Samples)
		}
	}
	failedFrac := 0.0
	if rep.attempted > 0 {
		failedFrac = float64(rep.failed) / float64(rep.attempted)
	}
	rep.setE2E("failed_frac", "fraction", failedFrac, rep.attempted)
	show("e2e", rep.e2e)
	show("layer", rep.layer)
	out := map[string]any{
		"correct":   rep.wrong == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"e2e":       rep.e2e,
		"layer":     rep.layer,
	}
	j, _ := json.Marshal(out)
	fmt.Printf("RESULT %s\n", j)
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	return dir
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}
