// Command perfbench is the repository benchmark. It measures the program a
// user deploys — four prestige-server processes on loopback driven by one
// load generator — under steady and peak load, plus the paper's Byzantine
// attack cell in the deterministic simulator.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload steady --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. --trace 0 reports the end-to-end metrics; --trace 1
// reports the per-layer metrics. A failed output check, a timeout or an
// invalid run exits nonzero and reports no numbers. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	goruntime "runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// hardDeadline bounds a whole run; past it the run is reported as failed.
const hardDeadline = 170 * time.Second

// buildDir holds everything the benchmark writes, inside the checkout.
const buildDir = ".bench_build/perfbench"

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run hands back: every metric it measured, by
// name, and its attempt counts.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	notes             []string // human-readable context printed to stderr
}

// errCheck marks a failed output check (as opposed to a run that could not
// complete): the result line says correct=false.
type errCheck struct{ error }

func main() {
	workload := flag.String("workload", "", "steady, peak or sim-attack")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	flag.Parse()
	log.SetFlags(log.Lmicroseconds)
	log.SetPrefix("perfbench: ")

	kids := newChildren()
	exit := func(code int) {
		kids.killAll()
		os.Exit(code)
	}
	// Every way out kills the servers: these signals and the hard deadline
	// here, and the servers' Pdeathsig when the benchmark dies without
	// running Go code (SIGKILL, or SIGPIPE from a reader that went away:
	// catching SIGPIPE would also catch it for every broken socket).
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		sig := <-sigc
		log.Printf("received %v: stopping servers", sig)
		exit(1)
	}()
	time.AfterFunc(hardDeadline, func() {
		log.Printf("hard deadline of %v passed: run failed", hardDeadline)
		exit(1)
	})

	out, err := run(*workload, *seed, *seconds, *trace == 1, kids)
	kids.killAll()
	if err != nil {
		log.Printf("run failed: %v", err)
		var ce errCheck
		if errors.As(err, &ce) {
			printResult(result{Correct: false, Metrics: map[string]metricValue{}})
		}
		exit(1)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	res := result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok {
			log.Printf("internal error: metric %s not measured", d.name)
			exit(1)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for _, n := range out.notes {
		fmt.Fprintln(os.Stderr, n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "%-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	if err := printResult(res); err != nil {
		log.Printf("write result: %v", err)
		exit(1)
	}
}

func printResult(r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(os.Stdout, "%s\n", b)
	return err
}

func run(workload string, seed int64, seconds int, trace bool, kids *children) (*outcome, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	log.Printf("workload %s seed %d seconds %d trace %v; nproc %d GOMAXPROCS %d",
		workload, seed, seconds, trace, goruntime.NumCPU(), goruntime.GOMAXPROCS(0))
	if workload == "sim-attack" {
		return runSimAttack(seconds, trace)
	}
	spec, ok := liveSpecs[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	bin, err := buildServer(buildDir)
	if err != nil {
		return nil, err
	}
	out, err := runLiveProcesses(workload, spec, seed, seconds, bin, kids)
	if err != nil || !trace {
		return out, err
	}
	if err := runTraced(workload, spec, seed, seconds, out); err != nil {
		return nil, err
	}
	// A live run steps no simulator.
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "sim.") {
			out.values[d.name] = 0
		}
	}
	return out, nil
}
