// Command e2ebench is the repository's end-to-end benchmark. It drives
// the real qsrmine binary and an in-process qsrmined (server.New behind
// httptest, called through the client package) on inputs it generates
// from a seed, checks every output against an in-process reference, and
// prints one JSON result line.
//
// Build and run it through run.sh from the repository root:
//
//	bash e2ebench/run.sh --workload scene-cli --seed 1 --seconds 15 --trace 0
//
// -trace 0 measures the end-to-end metrics with tracing off; -trace 1
// runs the separate traced pass that splits an op into layer self times.
// See README.md for every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// workloads maps a workload name to its runner.
var workloads = map[string]func(*env) (*outcome, error){
	"scene-cli":  runSceneCLI,
	"table-cli":  runTableCLI,
	"server-mix": runServerMix,
}

// workloadOrder is the order -workload all runs them in.
var workloadOrder = []string{"scene-cli", "table-cli", "server-mix"}

// env is one benchmark run's settings and scratch space.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string // repository root: the source the program was built from
	qsrmine  string // path of the built qsrmine binary
	work     string // scratch directory for inputs and persistence
	out      io.Writer
}

// logf prints one human-readable report line. The machine-readable
// result is always the last line of standard output, after these.
func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.out, format+"\n", args...)
}

// outcome is what a workload run produces.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

// result is the final JSON line.
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

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "", "workload to run: scene-cli, table-cli, server-mix, or all of them in turn")
		seed      = fs.Int64("seed", 1, "seed every input is generated from")
		seconds   = fs.Int("seconds", 15, "measured duration of the run")
		trace     = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced per-layer pass")
		root      = fs.String("root", "..", "repository root")
		qsrmine   = fs.String("qsrmine", "", "path of the built qsrmine binary")
		summarize = fs.Bool("summarize", false, "read result lines on stdin and print each metric's median and spread")
		spawn     = fs.Bool("spawn", false, "run as the helper that starts qsrmine processes (internal)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *spawn {
		if err := serveSpawn(os.Stdin, stdout); err != nil {
			fmt.Fprintln(stderr, "e2ebench spawn helper:", err)
			return 1
		}
		return 0
	}
	if *summarize {
		if err := summarizeResults(os.Stdin, stdout); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		return 0
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	} else if workloads[*workload] == nil {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q (want all, %s)\n", *workload, strings.Join(workloadOrder, ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *qsrmine == "" {
		fmt.Fprintln(stderr, "e2ebench: need -seconds >= 1, -trace 0 or 1, and -qsrmine")
		return 2
	}
	rootAbs, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	code := 0
	for _, name := range names {
		e := &env{
			workload: name,
			seed:     *seed,
			seconds:  time.Duration(*seconds) * time.Second,
			trace:    *trace == 1,
			root:     rootAbs,
			qsrmine:  *qsrmine,
			out:      stdout,
		}
		if c := runOne(e, stderr); c != 0 {
			code = c
		}
	}
	return code
}

// runOne runs one workload in a fresh scratch directory under
// .bench_build and prints its report and result line.
func runOne(e *env, stderr io.Writer) int {
	buildDir := filepath.Join(e.root, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	work, err := os.MkdirTemp(buildDir, "work-")
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	e.work = work

	printProvenance(e)
	out, err := workloads[e.workload](e)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", e.workload, err)
		return 1
	}
	defs := endToEnd
	if e.trace {
		defs = perLayer
	}
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok {
			fmt.Fprintf(stderr, "e2ebench: %s did not measure %s\n", e.workload, d.Name)
			return 1
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		e.logf("metric %-30s %14.4f %s", d.Name, v, d.Unit)
	}
	e.logf("report error_rate %.4f (%d failed of %d attempted)", ratio(float64(out.failed), float64(out.attempted)), out.failed, out.attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(e.out, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "e2ebench: %s: %d of %d ops failed or returned wrong output\n", e.workload, out.failed, out.attempted)
		return 1
	}
	return 0
}

// summarizeResults reads result lines (as printed by this command, one
// per line; other lines are skipped) and prints, for every metric, the
// median and the inter-quartile spread as a share of the median, next to
// the metric's bound.
func summarizeResults(r io.Reader, w io.Writer) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	runs := 0
	for _, line := range strings.Split(string(data), "\n") {
		var res result
		if !strings.HasPrefix(line, "{") || json.Unmarshal([]byte(line), &res) != nil || res.Metrics == nil {
			continue
		}
		runs++
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
		}
	}
	if runs < 2 {
		return fmt.Errorf("need at least two result lines, got %d", runs)
	}
	bounds := map[string]float64{}
	for _, d := range endToEnd {
		bounds[d.Name] = d.Bound
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%d runs\n", runs)
	for _, name := range names {
		xs := values[name]
		s := spread(xs)
		verdict := ""
		if b, ok := bounds[name]; ok {
			verdict = fmt.Sprintf("bound %.2f  %s", b, map[bool]string{true: "ok", false: "WIDE"}[s <= b/3])
		}
		fmt.Fprintf(w, "%-30s median %14.4f  spread %6.3f  %s\n", name, median(xs), s, verdict)
	}
	return nil
}
