package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/transact"
)

// setupRepeats is how many times a run performs its set-up; setup_s is
// the median.
const setupRepeats = 3

// cliWorkload is one qsrmine invocation run in a closed loop: one
// process at a time, the next started when the previous has exited and
// its standard output has been read.
type cliWorkload struct {
	bin    string // qsrmine binary
	spawn  *spawner
	cfg    core.Config
	file   string // input file name inside the work directory
	args   []string
	rows   int // reference rows, for rows_per_s
	gen    func() ([]byte, error)
	verify *cliVerifier
	// replay performs one op in-process through the layer functions.
	replay func(t *tracer) (*core.Outcome, error)
}

// runSceneCLI is the scene-cli workload: qsrmine on a 40x40 district
// scene, where decode, prepare, index filter and relate dominate.
func runSceneCLI(e *env) (*outcome, error) {
	ds, body, err := genScene(e.seed)
	if err != nil {
		return nil, err
	}
	measured := sceneShape(ds, body)
	if err := checkSeedShape(e, "scene", measured, func(seed int64) (shape, error) {
		ds, b, err := genScene(seed)
		if err != nil {
			return shape{}, err
		}
		return sceneShape(ds, b), nil
	}); err != nil {
		return nil, err
	}
	cfg := core.Config{Algorithm: core.AlgAprioriKCPlus, MinSupport: 0.05, GenerateRules: true, MinConfidence: 0.7}
	parsed, err := dataset.ReadJSON(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	ref, err := core.RunContext(context.Background(), parsed, cfg)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	opts := transact.DefaultOptions()
	opts.Parallelism = 1
	tcfg := cfg
	tcfg.Parallelism = 1
	w := &cliWorkload{
		cfg:    cfg,
		file:   "scene.json",
		args:   []string{"-alg", "apriori-kc+", "-minsup", "0.05", "-rules", "-format", "json"},
		rows:   measured.Rows,
		gen:    func() ([]byte, error) { _, b, err := genScene(e.seed); return b, err },
		verify: &cliVerifier{want: expectedCLIDoc(cfg, ref)},
		replay: func(t *tracer) (*core.Outcome, error) { return t.replaySceneOp(body, tcfg, opts) },
	}
	w.args = append([]string{"-data", ""}, w.args...)
	return w.run(e, body)
}

// runTableCLI is the table-cli workload: qsrmine on a 20000-row
// transaction table, with no geometry, where decode, intern, mining,
// rules and encoding share the time.
func runTableCLI(e *env) (*outcome, error) {
	table, body, err := genTable(e.seed)
	if err != nil {
		return nil, err
	}
	measured := tableShape(table, body)
	if err := checkSeedShape(e, "table", measured, func(seed int64) (shape, error) {
		t, b, err := genTable(seed)
		if err != nil {
			return shape{}, err
		}
		return tableShape(t, b), nil
	}); err != nil {
		return nil, err
	}
	cfg := core.Config{Algorithm: core.AlgAprioriKCPlus, MinSupport: 0.002, GenerateRules: true, MinConfidence: 0.5}
	parsed, err := dataset.ReadTableCSV(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	ref, err := core.RunTableContext(context.Background(), parsed, cfg)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	tcfg := cfg
	tcfg.Parallelism = 1
	w := &cliWorkload{
		cfg:    cfg,
		file:   "table.csv",
		args:   []string{"-table", "", "-alg", "apriori-kc+", "-minsup", "0.002", "-rules", "-minconf", "0.5", "-format", "json"},
		rows:   measured.Rows,
		gen:    func() ([]byte, error) { _, b, err := genTable(e.seed); return b, err },
		verify: &cliVerifier{want: expectedCLIDoc(cfg, ref)},
		replay: func(t *tracer) (*core.Outcome, error) {
			var tab *dataset.Table
			var out *core.Outcome
			err := t.op(func() error {
				var err error
				if err = t.layer("dataset.read_table_ms", func() error {
					tab, err = dataset.ReadTableCSV(bytes.NewReader(body))
					return err
				}); err != nil {
					return err
				}
				out, err = t.mineTable(tab, tcfg, "")
				return err
			})
			t.countMining()
			return out, err
		},
	}
	return w.run(e, body)
}

// run performs set-up and then the untraced closed loop (-trace 0) or
// the traced pass (-trace 1).
func (w *cliWorkload) run(e *env, body []byte) (*outcome, error) {
	path := filepath.Join(e.work, w.file)
	w.args[1] = path
	w.bin = e.qsrmine
	var err error
	if w.spawn, err = startSpawner(); err != nil {
		return nil, err
	}
	defer w.spawn.close()
	cal := newCalibrator()
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		cal.measure()
		var child time.Duration
		d, err := cpuSpan(func() error {
			var err error
			child, err = w.setup(e, path, body)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, (d + child).Seconds())
	}
	e.logf("setup_s samples (CPU seconds, unscaled) %v", setups)
	if e.trace {
		return w.traced(e)
	}

	// Each run is preceded by one calibration, so the host's speed is
	// sampled as often as the program runs.
	var lats, cpus, rss []float64
	failed := 0
	stdout := new(bytes.Buffer)
	steal := startSteal()
	deadline := time.Now().Add(e.seconds)
	for time.Now().Before(deadline) {
		cal.measure()
		r, err := w.exec(stdout, nil)
		if err == nil {
			err = w.verify.check(stdout.Bytes())
		}
		if err != nil {
			failed++
			e.logf("op failed: %v", err)
			continue
		}
		lats = append(lats, ms(r.wall))
		cpus = append(cpus, ms(r.cpu))
		rss = append(rss, float64(r.rssKB)/1024)
	}
	if len(lats) == 0 {
		return &outcome{attempted: failed, failed: failed, metrics: map[string]float64{}}, nil
	}
	e.logf("ops %d runs (closed loop, 1 process at a time), %d failed; host CPU stolen %.1f%%; calibration median %.3f ms (scale %.4f)",
		len(lats)+failed, failed, 100*steal.share(), median(cal.samples), cal.scale())
	e.logf("report op_p50_ms %.3f ms, op_p90_ms %.3f ms (wall, n=%d), rows_per_s %.0f rows/s (%d rows per op)",
		percentile(lats, 50), percentile(lats, 90), len(lats), float64(w.rows*len(lats))/(sum(lats)/1000), w.rows)
	e.logf("report cpu_p50_ms %.3f ms, cpu_p90_ms %.3f ms (unscaled, n=%d)", percentile(cpus, 50), percentile(cpus, 90), len(cpus))
	return &outcome{
		attempted: len(lats) + failed,
		failed:    failed,
		metrics: map[string]float64{
			"cpu_ms_per_op": median(cpus) * cal.scale(),
			"peak_rss_mb":   median(rss),
			"setup_s":       median(setups) * cal.scale(),
		},
	}, nil
}

// setup generates the input, writes it where qsrmine reads it, and runs
// qsrmine once (a cold start), checking its output. It returns the CPU
// time of that run, which the helper process, not this one, waited for.
func (w *cliWorkload) setup(e *env, path string, body []byte) (time.Duration, error) {
	b, err := w.gen()
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(b, body) {
		return 0, fmt.Errorf("seed %d generated different inputs on two calls", e.seed)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return 0, err
	}
	var stdout bytes.Buffer
	r, err := w.exec(&stdout, nil)
	if err != nil {
		return 0, err
	}
	if err := w.verify.check(stdout.Bytes()); err != nil {
		return 0, fmt.Errorf("first run: %w", err)
	}
	return r.cpu, nil
}

// exec runs qsrmine once through the spawn helper, reading all of its
// standard output into stdout.
func (w *cliWorkload) exec(stdout *bytes.Buffer, env []string) (procRun, error) {
	r, err := w.spawn.run(w.bin, w.args, env, stdout)
	if err != nil {
		return r, fmt.Errorf("qsrmine: %w", err)
	}
	return r, nil
}

// traced is the traced pass of a CLI workload. It runs single-core so
// that layer self times add up to the op: the replay runs with
// GOMAXPROCS=1 and mining/extraction parallelism 1, and the untraced
// comparison runs of qsrmine get GOMAXPROCS=1 too. Ops alternate between
// one untraced qsrmine run and one traced in-process replay.
func (w *cliWorkload) traced(e *env) (*outcome, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	t := newTracer()
	var untraced []float64
	attempted, failed := 0, 0
	stdout := new(bytes.Buffer)
	deadline := time.Now().Add(e.seconds)
	for time.Now().Before(deadline) {
		attempted += 2
		r, err := w.exec(stdout, []string{"GOMAXPROCS=1"})
		if err == nil {
			err = w.verify.check(stdout.Bytes())
		}
		if err != nil {
			failed++
			e.logf("untraced op failed: %v", err)
		} else {
			untraced = append(untraced, ms(r.cpu))
		}
		out, err := w.replay(t)
		if err == nil {
			err = diffCLIDoc(expectedCLIDoc(w.cfg, out), w.verify.want)
		}
		if err != nil {
			failed++
			e.logf("traced op failed: %v", err)
		}
	}
	m := t.metrics(median(untraced))
	e.logf("traced ops %d, untraced comparison runs %d (CPU p50 %.3f ms)", t.ops, len(untraced), median(untraced))
	logLayerSplit(e, m)
	return &outcome{attempted: attempted, failed: failed, metrics: m}, nil
}

// logLayerSplit prints each layer's self time and its share of the
// traced op.
func logLayerSplit(e *env, m map[string]float64) {
	op := m["trace.op_ms"]
	for _, name := range append(selfTimeLayers, "core.other_ms") {
		if m[name] != 0 {
			e.logf("layer %-26s self %10.3f ms  share %5.1f%%", name, m[name], 100*ratio(m[name], op))
		}
	}
	e.logf("layer %-26s op   %10.3f ms  tracing overhead %.3f ms", "trace.op_ms", op, m["trace.overhead_ms"])
}
