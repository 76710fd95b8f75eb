// Command trackbench is disttrack's benchmark. It has two halves:
//
//   - End-to-end runs (--trace 0): a single-process generator drives a
//     real trackd over real sockets with pre-encoded inputs, checks every
//     answer against internal/oracle, and reports the user-visible metrics.
//   - The traced ladder (--trace 1): the same fixed-seed streams are fed
//     in-process into each layer's public entry point — engine, runtime,
//     service, HTTP handler, TCP ingest, query — and each layer's cost is
//     the difference between adjacent rungs. Spans are written to a file.
//
// Run it through run.sh, which builds trackd and this command from the
// checkout. See README.md for every metric and workload.
//
//	bash trackbench/run.sh --workload hh-http --seed 1 --seconds 30 --trace 0
//	bash trackbench/run.sh --repeat 10 --seconds 30     # spread report
//	bash trackbench/run.sh --selftest
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	trackd   string
	out      string
	repeat   int
	selftest bool
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("trackbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, " | ")+" (with --repeat: comma list, default all)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 30, "measured window per run")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: the traced per-layer ladder")
	fs.StringVar(&o.trackd, "trackd", "", "trackd binary built from the commit under test")
	fs.StringVar(&o.out, "out", ".", "directory for span files")
	fs.IntVar(&o.repeat, "repeat", 0, "spread report: run each workload this many times, seeds seed..seed+n-1")
	fs.BoolVar(&o.selftest, "selftest", false, "run the percentile and deterministic-count self-tests only")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if o.selftest {
		return o, nil
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be >= 1")
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	if o.repeat > 0 {
		return o, nil
	}
	if !slices.Contains(workloadNames, o.workload) {
		return o, fmt.Errorf("unknown --workload %q (want %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	if o.trace == 0 && o.trackd == "" {
		return o, fmt.Errorf("--trackd is required for end-to-end runs")
	}
	return o, nil
}

// ungated metrics are printed but left out of the result line, so no
// bound gates them. On the reference machine (2 vCPUs shared with other
// guests) they follow the host's CPU steal: runs of one seed read the
// tails up to 1.7x apart, and hh-http's ingest_rps spread (q3−q1)/median
// reached 0.31 over ten seeds while cpu_ns_per_item stayed at 0.09. A
// bound would flag noise. The spread report still shows them.
var ungated = map[string]bool{"ingest_rps": true, "ingest_p99_ms": true, "query_p99_ms": true, "fresh_p90_ms": true}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "trackbench:", err)
		os.Exit(2)
	}
	switch {
	case o.selftest:
		err = selfTest()
		if err == nil {
			fmt.Println("self-tests passed")
		}
	case o.repeat > 0:
		err = spreadReport(o)
	default:
		err = runOnce(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "trackbench:", err)
		os.Exit(1)
	}
}

// selfTest runs the checks every traced run also makes on its own code.
func selfTest() error {
	if err := checkPercentiles(); err != nil {
		return err
	}
	return checkDeterministic()
}

// runOnce makes one run and prints the result line; a failed operation or
// a correctness violation makes it exit nonzero after printing.
func runOnce(o options) error {
	var (
		metrics   []metric
		attempted int64
		failed    int64
		problems  []string
	)
	if o.trace == 1 {
		if err := checkPercentiles(); err != nil {
			return err
		}
		lr, err := runLadder(o.seed, filepath.Join(o.out, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed)))
		if err != nil {
			return err
		}
		metrics, attempted, failed, problems = lr.metrics, lr.attempted, lr.failed, lr.problems
		fmt.Printf("spans written to %s\n", lr.spanFile)
	} else {
		r, err := runE2E(o.trackd, o.workload, o.seed, o.seconds)
		if err != nil {
			return err
		}
		metrics, attempted, failed, problems = r.metrics, r.attempted, r.failed, r.problems
		if r.lateN > 0 {
			fmt.Printf("gen.late_p99_ms %.6f ms (n=%d)\n", r.lateP99, r.lateN)
		} else {
			fmt.Printf("gen.late_p99_ms n/a (closed loop)\n")
		}
		fmt.Printf("gen.cpu_share %.6f ratio\n", r.cpuShare)
		for _, s := range r.skipped {
			fmt.Printf("not reported: %s\n", s)
		}
	}
	out := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range metrics {
		if m.n > 0 {
			fmt.Printf("%s %.6f %s (n=%d)\n", m.name, m.value, m.unit, m.n)
		} else {
			fmt.Printf("%s %.6f %s\n", m.name, m.value, m.unit)
		}
		if !ungated[m.name] {
			out.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
		}
	}
	fmt.Printf("fail_ratio %.6f (%d of %d)\n", float64(failed)/float64(max(attempted, 1)), failed, attempted)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "trackbench: failure:", p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if failed > 0 {
		return fmt.Errorf("%d of %d operations failed or violated the contract", failed, attempted)
	}
	return nil
}
