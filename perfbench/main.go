// Command perfbench is the repository's benchmark: it drives the real
// esharing-server binary, started with its default flags plus a
// temporary -wal-dir, through one of a few fixed workloads, checks the
// answers, and prints every end-to-end metric; with -trace 1 it instead
// runs the same workload against an in-process server with spans
// around each layer and prints the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// workload is one traffic mix against one server configuration.
type workload struct {
	name string
	mix  mix
	// restart makes the server a restart of a prepared decision log
	// (snapshot plus tail) over a history CSV.
	restart bool
}

// placeRate is the open-loop placement rate of every workload: about a
// third of the default server's sequential placement capacity on 2
// cores (~137/s, bounded by the KS test). It also sets how many
// placements place_cost_m covers, 900 in a 25 s run. At 600, the zero
// to two stations a run opens made the cost's spread across seeds
// reach its bound.
const placeRate = 48

// read-mix's rider-map rate, about three views per placement, is an
// assumption: nothing in the repository states how often riders open
// the map. So read latency is printed, not gated.
var workloads = []workload{
	{name: "place-default", mix: mix{placeRate: placeRate}},
	{name: "read-mix", mix: mix{placeRate: placeRate, mapRate: 150}},
	{name: "restart-replay", mix: mix{placeRate: placeRate}, restart: true},
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics, their human-readable lines and any failed
// correctness checks.
type report struct {
	metrics  map[string]metric
	lines    []string
	problems []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// add records a metric; n is its sample count (0 for a count or a
// single measurement) and note says how it was measured.
func (r *report) add(name, unit string, v float64, n int, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	line := fmt.Sprintf("%-28s %14.4f %-6s", name, v, unit)
	if n > 0 {
		line += fmt.Sprintf(" n=%d", n)
	}
	if note != "" {
		line += "  " + note
	}
	r.lines = append(r.lines, line)
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "place-default", "workload to run")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 25, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced in-process variant and reports per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	tmp, err := filepath.Abs(filepath.Join(buildDir, "tmp", fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(tmp, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(tmp)
	serverBin, err := filepath.Abs(filepath.Join(buildDir, "esharing-server"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	env := runEnv{bin: serverBin, tmp: tmp, seed: *seed, seconds: *seconds, conns: min(runtime.NumCPU(), 2)}
	var rep *report
	var attempted, failed int64
	if *trace == 1 {
		rep, attempted, failed, err = runTraced(env, *w)
	} else {
		rep, attempted, failed, err = runServed(env, *w)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 2
	}
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	for _, p := range rep.problems {
		fmt.Println("CHECK FAILED:", p)
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	res := result{
		Correct:   len(rep.problems) == 0 && failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   rep.metrics,
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// buildDir, relative to the repository root the benchmark runs from,
// holds the binaries run.sh builds, the traces and the per-run
// temporary directories.
const buildDir = ".bench_build"

// runEnv is what every run needs.
type runEnv struct {
	bin     string // esharing-server binary
	tmp     string // per-run scratch directory, removed at exit
	seed    uint64
	seconds float64
	conns   int // connection cap: nproc, at most 2
}
