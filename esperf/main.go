// Command esperf is the EventSpace benchmark: it drives named
// workloads through the eventspace façade, checks their outputs, and
// prints every end-to-end metric by name and unit. With -trace 1 it
// instead measures the per-layer metrics: spans around the calls the
// benchmark makes into each layer, the counters the program keeps in
// its metrics registry, and replays of a recorded tuple stream through
// each layer's public entry point.
//
// Usage, from the repository root:
//
//	bash esperf/run.sh --workload lb-archive --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See esperf/README.md for the
// workloads and the metric map.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

var nan = math.NaN()

// workDir holds the run's scratch archives; it is removed at exit.
var workDir string

// raceEnabled is set by race_on.go in race builds. It is a variable
// rather than a build-tagged constant pair so that tools reading every
// file of the package still type-check it.
var raceEnabled bool

type opts struct {
	workload string
	seed     uint64 // input seed (the held-out derivation when -heldout)
	argSeed  uint64
	heldOut  bool
	seconds  int
	trace    bool
	smoke    bool
	sz       sizes
	// minPairs bounds the timed loop (live pairs, or mix passes) and
	// minSetups the set-up repetitions from below, so tiny budgets still
	// yield medians.
	minPairs, minSetups int
	corrupt             func(dir string) error
}

// sizes fixes the amount of work per measured unit.
type sizes struct {
	lbChunk, lbChunks int // lb-archive rounds per chunk, chunks per pair
	smChunk, smChunks int // statsm-lan iterations per chunk, chunks per pair
	fixtureRounds     int // archive-query fixture rounds
	replayTuples      int // traced layer replays: tuples fed
}

var fullSizes = sizes{lbChunk: 100, lbChunks: 60, smChunk: 50, smChunks: 40, fixtureRounds: 2500, replayTuples: 200000}

// smokeSizes keep every code path but finish in seconds; the
// benchmark's own tests use them.
var smokeSizes = sizes{lbChunk: 40, lbChunks: 2, smChunk: 20, smChunks: 2, fixtureRounds: 400, replayTuples: 5000}

// workloads lists the workloads in BENCHMARK.json order.
var workloads = []string{"lb-archive", "statsm-lan", "archive-query"}

// heldOutSalt derives the held-out seed: a claim tuned on seed s can be
// re-checked on -heldout -seed s, an input its author never ran.
const heldOutSalt = 0x5eed_0ff5_e7c0_ffee

func main() {
	if raceEnabled {
		fmt.Fprintln(os.Stderr, "esperf: refusing to record: built with -race, whose timings are not performance data")
		os.Exit(3)
	}
	os.Exit(run(os.Args[1:], os.Stdout, nil))
}

// run is the whole program; it returns the exit code. corrupt, when
// set, damages archive-query's fixture after its references are taken
// (the negative test).
func run(args []string, stdout io.Writer, corrupt func(dir string) error) int {
	fs := flag.NewFlagSet("esperf", flag.ContinueOnError)
	var o opts
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: lb-archive, statsm-lan or archive-query")
	fs.Uint64Var(&o.argSeed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 20, "measuring time budget in seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run printing per-layer metrics")
	fs.BoolVar(&o.heldOut, "heldout", false, "derive the inputs from the held-out twin of -seed")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny sizes (tests)")
	fs.StringVar(&workDir, "workdir", ".esperf-work", "scratch directory for archives and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	o.seed = o.argSeed
	if o.heldOut {
		o.seed = mix(o.argSeed, heldOutSalt)
	}
	o.sz, o.minPairs, o.minSetups = fullSizes, 2, 25
	if o.smoke {
		o.sz, o.minPairs, o.minSetups = smokeSizes, 1, 2
	}
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "esperf: -seconds must be at least 1")
		return 2
	}
	// One P: the modelled hosts are goroutines that hand off to each
	// other under the virtual clock, and with more Ps every handoff is a
	// wakeup across CPUs, whose cost on a shared VM follows the
	// neighbours' load. One P measured faster on every workload and did
	// not slow down beside a competing busy process.
	runtime.GOMAXPROCS(1)
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "esperf:", err)
		return 1
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "esperf:", err)
		return 1
	}
	base := workDir
	workDir = dir
	defer os.RemoveAll(dir)

	st := stamp{
		Workload: o.workload, Seed: o.argSeed, InputSeed: o.seed, HeldOut: o.heldOut,
		Trace: o.trace, Seconds: o.seconds, GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), GoVersion: runtime.Version(), CPU: cpuModel(), Race: raceEnabled,
	}
	writeJSONLine(stdout, "stamp", st)

	o.corrupt = corrupt
	rep := newReport()
	var tr *tracer
	start := time.Now()
	if o.trace {
		tr, err = runTraced(&o, rep, stdout)
	} else {
		tr, err = runWorkload(&o, rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "esperf:", err)
		return 1
	}
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, "note", n)
	}
	rep.printChecks(stdout)
	rep.printNamed(stdout)
	fmt.Fprintf(stdout, "note elapsed=%v\n", time.Since(start).Round(time.Millisecond))

	res := result{Correct: rep.correct(), Attempted: rep.attempted, Failed: rep.failed}
	if o.trace {
		rep.printLayer(stdout)
		path := filepath.Join(base, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.argSeed))
		if err := tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "esperf:", err)
			return 1
		}
		fmt.Fprintln(stdout, "note spans written to", path)
		res.Metrics = rep.layerMetrics()
	} else {
		res.Metrics = rep.e2eMetrics()
	}
	for k, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Fprintf(os.Stderr, "esperf: metric %s not measured\n", k)
			return 1
		}
	}
	if err := writeJSONLine(stdout, "", res); err != nil {
		fmt.Fprintln(os.Stderr, "esperf:", err)
		return 1
	}
	return 0
}

// mix is splitmix64 over (a, b): the benchmark's only source of
// pseudo-randomness, so every input follows from the seed.
func mix(a, b uint64) uint64 {
	z := a + 0x9e3779b97f4a7c15*(b+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
