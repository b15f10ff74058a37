// Command e2ebench is the repository's end-to-end benchmark. One process
// runs one workload against the engine's public Go APIs, checks every
// output against committed digests, and prints its metrics as the last
// line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (timed with tracing
// off); with -trace 1 the run records obs spans around each call into a
// layer, prints the per-layer ledger, writes the spans as obs JSONL and
// reports the per-layer metrics. See README.md for the workloads, the
// metric -> layer -> workload map and how to run it.
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

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	tiny     bool   // self-test sizes (set by the self-test only)
	digests  string // committed digest file
	record   bool   // write digests instead of checking them
	workDir  string // scratch space for state dirs and traces
	traceOut string // JSONL trace file of a traced run
}

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"paper-small":  runPaperSmall,
	"served-fleet": runServedFleet,
}

func main() {
	var (
		c       config
		secs    = flag.Int("seconds", 10, "how long one run measures")
		traceOn = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
	)
	flag.StringVar(&c.workload, "workload", "", "paper-small | served-fleet")
	flag.Int64Var(&c.seed, "seed", 1, "workload seed: selects and orders the generated inputs")
	flag.StringVar(&c.digests, "digests", filepath.Join("e2ebench", "digests.json"), "committed output digests")
	flag.BoolVar(&c.record, "record", false, "record output digests into -digests instead of checking them")
	flag.StringVar(&c.workDir, "work", filepath.Join(".bench_build", "run"), "scratch directory for state dirs and traces")
	flag.StringVar(&c.traceOut, "trace-out", "", "trace JSONL path of a traced run (default <work>/<workload>-seed<seed>.jsonl)")
	flag.Parse()
	c.seconds = time.Duration(*secs) * time.Second
	c.trace = *traceOn == 1
	if c.traceOut == "" {
		c.traceOut = filepath.Join(c.workDir, fmt.Sprintf("%s-seed%d.jsonl", c.workload, c.seed))
	}
	res, err := runBench(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one run: its configuration, the correctness
// gate, the tracer of a traced run, and the metrics collected so far.
type bench struct {
	cfg     config
	gate    *gate
	tr      *tracing // nil in an untraced run
	metrics map[string]metric
}

func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// runBench runs one workload and assembles its result. An error means the
// run could not be carried out at all (bad flags, missing inputs); failed
// operations are counted in the result instead.
func runBench(c config) (*result, error) {
	run, ok := workloads[c.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (paper-small | served-fleet)", c.workload)
	}
	if c.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	g, err := loadGate(c.digests, c.record)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(c.workDir, 0o777); err != nil {
		return nil, err
	}
	// A struct of strings and ints always marshals.
	fp, _ := json.Marshal(fingerprint())
	fmt.Printf("fingerprint %s\n", fp)

	b := &bench{cfg: c, gate: g, metrics: map[string]metric{}}
	if c.trace {
		b.tr = newTracing(c.traceOut)
	}
	if err := run(b); err != nil {
		return nil, err
	}
	if c.record {
		if err := g.save(c.digests); err != nil {
			return nil, err
		}
	}
	for _, p := range g.problems {
		fmt.Fprintln(os.Stderr, "e2ebench: correctness:", p)
	}
	if b.tr != nil {
		if err := b.tr.finish(b); err != nil {
			return nil, err
		}
	} else {
		b.set("peak_rss_mb", peakRSSMB(), "MB")
		b.set("ok_ratio", g.okRatio(), "ratio")
	}
	want := endToEnd
	if c.trace {
		want = perLayer
	}
	res := &result{
		Correct:   g.failed == 0 && g.attempted > 0,
		Attempted: g.attempted,
		Failed:    g.failed,
		Metrics:   map[string]metric{},
	}
	for name, unit := range want {
		m, ok := b.metrics[name]
		if !ok {
			if !c.trace {
				return nil, fmt.Errorf("workload %s did not measure %s", c.workload, name)
			}
			// A traced run reports every layer; one a workload never
			// enters (atpg on served-fleet, server on paper-small) is
			// reported as the measured zero.
			m = metric{Value: 0, Unit: unit}
		}
		res.Metrics[name] = m
	}
	printMetrics(res.Metrics)
	return res, nil
}

// endToEnd and perLayer list every metric with its unit. Every workload
// reports every end-to-end metric; what its "operation" is depends on the
// workload (README.md).
var endToEnd = map[string]string{
	"setup_s":     "s",
	"op_p50_ms":   "ms",
	"op_p90_ms":   "ms",
	"ops_per_s":   "1/s",
	"peak_rss_mb": "MB",
	"ok_ratio":    "ratio",
}

var perLayer = map[string]string{
	"circuits.busy_s":             "s",
	"fault.sample_busy_s":         "s",
	"atpg.sp_busy_s":              "s",
	"atpg.sfu_busy_s":             "s",
	"atpg.patterns":               "count",
	"atpg.podem_detected":         "count",
	"atpg.untestable":             "count",
	"atpg.podem_yield_ratio":      "ratio",
	"ptpgen.gen_busy_s":           "s",
	"ptpgen.convert_busy_s":       "s",
	"ptpgen.convert_dropped":      "count",
	"experiments.table1_busy_s":   "s",
	"experiments.table2_busy_s":   "s",
	"experiments.table3_busy_s":   "s",
	"experiments.summary_busy_s":  "s",
	"core.partition_busy_s":       "s",
	"core.trace_busy_s":           "s",
	"core.faultsim_busy_s":        "s",
	"core.reduce_busy_s":          "s",
	"core.reassemble_busy_s":      "s",
	"core.evaluate_busy_s":        "s",
	"netlist.compile_busy_s":      "s",
	"gpu.busy_s":                  "s",
	"gpu.sim_cycles":              "count",
	"gpu.host_ns_per_cycle":       "ns",
	"trace.patterns":              "count",
	"fault.sim_busy_s":            "s",
	"fault.fault_evals":           "count",
	"fault.blocks":                "count",
	"fault.dedup_hit_ratio":       "ratio",
	"fault.cone_skip_ratio":       "ratio",
	"fault.prescreen_skip_ratio":  "ratio",
	"server.submit_busy_s":        "s",
	"server.result_busy_s":        "s",
	"server.queue_wait_s":         "s",
	"server.exec_self_s":          "s",
	"server.cache_hit_ratio":      "ratio",
	"server.cache_hit_p50_ms":     "ms",
	"run.checkpoint_busy_s":       "s",
	"run.self_s":                  "s",
	"dist.wire_busy_s":            "s",
	"dist.exec_busy_s":            "s",
	"dist.shards":                 "count",
	"dist.redispatch_ratio":       "ratio",
	"bench.trace_overhead_ratio":  "ratio",
	"bench.ledger_coverage_ratio": "ratio",
	"bench.traced_wall_s":         "s",
	"bench.self_s":                "s",
}

// printMetrics writes every metric by name and unit, for people reading
// the run (the machine-readable copy is the last line).
func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-30s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// peakRSSMB is the process's peak resident set size (getrusage maxrss,
// reported by Linux in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// fingerprintInfo identifies the environment a result was measured in.
type fingerprintInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func fingerprint() fingerprintInfo {
	return fingerprintInfo{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit(),
	}
}
