// Command perfbench is the repository's end-to-end benchmark: a
// single-process load generator that boots a real installation over
// loopback TCP (one lease authority, two disk nodes on file-backed,
// fsynced media, two clients) and drives it closed-loop, or runs the
// deterministic sharded simulator. See README.md for the workloads, the
// metrics and how to run one.
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the gated
// end-to-end metrics; --trace 1 reports the per-layer metrics of a
// separate traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what one invocation was asked to do.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scratch holds the media directories of this run; spans is where a
	// traced run writes its span file.
	scratch, spans string
}

type workloadRunner func(rc runConfig, info map[string]any) (result, error)

var workloads = map[string]workloadRunner{
	"durable-write": liveRunner(durableWrite{}),
	"shared-rw":     liveRunner(sharedRW{}),
	"metadata":      liveRunner(metadata{}),
	"sim-shards":    runSim,
}

func main() {
	var rc runConfig
	var traceFlag int
	flag.StringVar(&rc.workload, "workload", "", "workload to run: durable-write, shared-rw, metadata or sim-shards")
	flag.Int64Var(&rc.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&rc.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = report per-layer metrics from a traced run")
	flag.Parse()
	rc.trace = traceFlag == 1
	run, ok := workloads[rc.workload]
	if !ok || rc.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n",
			rc.workload, rc.seconds, traceFlag)
		os.Exit(2)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	rc.scratch = dir
	rc.spans = filepath.Join(buildDir, "spans")
	info := map[string]any{
		"workload": rc.workload, "seed": rc.seed, "seconds": rc.seconds, "trace": rc.trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
	}
	res, err := run(rc, info)
	if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", rc.workload, err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"config": info}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(1)
	}
}

// buildDir is where the benchmark builds and keeps its scratch files,
// relative to the checkout root it runs from.
const buildDir = ".bench_build"

// nanotime is a monotonic nanosecond clock shared by every recorder.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }
