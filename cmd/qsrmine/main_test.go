package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	qsrmine "repro"
)

func TestParseDeps(t *testing.T) {
	deps, err := parseDeps("a:b,contains_street:contains_illuminationPoint")
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) != 2 || deps[0].A != "a" || deps[0].B != "b" ||
		deps[1].A != "contains_street" {
		t.Errorf("deps = %+v", deps)
	}
	// Item names containing '=' work because ':' separates pairs.
	deps, err = parseDeps("murderRate=high:contains_slum")
	if err != nil {
		t.Fatal(err)
	}
	if deps[0].A != "murderRate=high" {
		t.Errorf("attr item dep = %+v", deps[0])
	}
	if got, err := parseDeps(""); err != nil || got != nil {
		t.Error("empty spec must be a nil no-op")
	}
	for _, bad := range []string{"justoneitem", "a:", ":b", "a:b,,"} {
		if _, err := parseDeps(bad); err == nil {
			t.Errorf("parseDeps(%q) should fail", bad)
		}
	}
}

// TestRetiredEngineAlgFlag: -alg still accepts the retired engine
// names, which now mine as (and report) apriori-kc+, with output equal
// to an explicit -alg apriori-kc+ run.
func TestRetiredEngineAlgFlag(t *testing.T) {
	var want bytes.Buffer
	if err := run([]string{"-sample", "-minsup", "0.5", "-alg", "apriori-kc+"}, &want, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"eclat", "eclat-kc+", "fpgrowth", "fpgrowth-kc+"} {
		var stdout bytes.Buffer
		if err := run([]string{"-sample", "-minsup", "0.5", "-alg", name}, &stdout, io.Discard); err != nil {
			t.Fatalf("-alg %s: %v", name, err)
		}
		if !strings.Contains(stdout.String(), "algorithm:            apriori-kc+\n") {
			t.Errorf("-alg %s output does not report apriori-kc+:\n%s", name, stdout.String())
		}
		if got, w := stripMiningTime(stdout.String()), stripMiningTime(want.String()); got != w {
			t.Errorf("-alg %s output differs from -alg apriori-kc+:\n%s\nwant:\n%s", name, got, w)
		}
	}
}

// stripMiningTime drops the text output's wall-clock line.
func stripMiningTime(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if !strings.Contains(line, "mining time") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// TestCountingFlagRetired: -counting is gone, so naming it is a usage
// error (exit 2) rather than a silently ignored setting.
func TestCountingFlagRetired(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-sample", "-counting", "vertical"}, &stdout, &stderr)
	if !errors.Is(err, errUsage) {
		t.Fatalf("-counting vertical = %v, want a usage error (exit 2)", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("-counting mined before failing: %q", stdout.String())
	}
}

// TestRunRejectsBadMinSupport: a minimum support outside (0, 1] — NaN
// included — is a validation error (exit 1) naming the field, raised
// before extraction starts (no extract stage in the trace).
func TestRunRejectsBadMinSupport(t *testing.T) {
	for _, minsup := range []string{"NaN", "0", "1.5", "-0.1", "+Inf"} {
		var stdout, stderr bytes.Buffer
		err := run([]string{"-sample", "-trace", "-minsup", minsup}, &stdout, &stderr)
		if err == nil || errors.Is(err, errUsage) {
			t.Errorf("-minsup %s = %v, want a validation error (exit 1)", minsup, err)
			continue
		}
		if !strings.Contains(err.Error(), "minSupport") {
			t.Errorf("-minsup %s error %q does not name minSupport", minsup, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("-minsup %s mined before failing: %q", minsup, stdout.String())
		}
		if strings.Contains(stderr.String(), "stage extract") {
			t.Errorf("-minsup %s extracted before failing:\n%s", minsup, stderr.String())
		}
	}
}

func TestParallelismPlumbsToCounting(t *testing.T) {
	// -parallelism reaches the counting pool through core.Config and the
	// results match the sequential run exactly.
	run := func(par int) *qsrmine.Outcome {
		t.Helper()
		out, err := qsrmine.RunTable(qsrmine.Table2Reconstruction(), qsrmine.Config{
			Algorithm:   qsrmine.AprioriKCPlus,
			MinSupport:  0.34,
			Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq, par := run(1), run(8)
	if len(seq.Result.Frequent) != len(par.Result.Frequent) {
		t.Fatalf("sequential %d vs parallel %d itemsets",
			len(seq.Result.Frequent), len(par.Result.Frequent))
	}
	for i := range seq.Result.Frequent {
		a, b := seq.Result.Frequent[i], par.Result.Frequent[i]
		if !a.Items.Equal(b.Items) || a.Support != b.Support {
			t.Fatalf("itemset %d differs: %v/%d vs %v/%d", i, a.Items, a.Support, b.Items, b.Support)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	out, err := qsrmine.RunTable(qsrmine.Table2Reconstruction(), qsrmine.Config{
		Algorithm:     qsrmine.AprioriKCPlus,
		MinSupport:    0.5,
		GenerateRules: true,
		MinConfidence: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeJSON(&buf, "apriori-kc+", out, true); err != nil {
		t.Fatal(err)
	}
	var decoded jsonOutput
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if decoded.Algorithm != "apriori-kc+" || decoded.Transactions != 6 {
		t.Errorf("decoded header = %+v", decoded)
	}
	if len(decoded.Frequent) != 30 {
		t.Errorf("frequent itemsets in JSON = %d, want 30", len(decoded.Frequent))
	}
	if decoded.PrunedSameFeature != 4 {
		t.Errorf("prunedSameFeature = %d", decoded.PrunedSameFeature)
	}
	if len(decoded.Rules) == 0 {
		t.Error("rules missing from JSON")
	}
	// Without rules, the field is omitted.
	buf.Reset()
	if err := writeJSON(&buf, "apriori", out, false); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"rules"`)) {
		t.Error("rules present despite withRules=false")
	}
}

// TestRunBadFlagsErrorNotOnStdout pins the CLI contract: bad flag
// combinations make run return an error (main then exits non-zero and
// prints it to stderr) while stdout stays clean of error text.
func TestRunBadFlagsErrorNotOnStdout(t *testing.T) {
	cases := [][]string{
		{"-sample", "-closed", "-maximal"}, // mutually exclusive post filters
		{},                                 // no input selected
		{"-sample", "-format", "sideways"}, // unknown output format
		{"-sample", "-deps", "broken"},     // malformed dependency spec
		{"-alg", "bogus", "-sample"},       // unknown algorithm (flag parse error)
		{"-table", "/no/such/file.csv"},    // unreadable input
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		if err == nil {
			t.Errorf("run(%q) succeeded, want error", args)
			continue
		}
		if strings.Contains(stdout.String(), err.Error()) {
			t.Errorf("run(%q) wrote its error to stdout: %q", args, stdout.String())
		}
	}
	// Flag parse failures (as opposed to post-parse validation) carry
	// errUsage so main exits 2, the usual usage-error code.
	var pout, perr bytes.Buffer
	if err := run([]string{"-alg", "bogus", "-sample"}, &pout, &perr); !errors.Is(err, errUsage) {
		t.Errorf("flag parse failure %v is not errUsage", err)
	}
	// The unknown-format case must not have mined to stdout before
	// failing either.
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-sample", "-format", "sideways"}, &stdout, &stderr); err == nil {
		t.Fatal("unknown format must fail")
	} else if !strings.Contains(err.Error(), "sideways") {
		t.Errorf("error %q does not name the bad format", err)
	}
}

// TestRunRejectsNegativeTopAndTimeout: -top and -timeout have no
// negative meaning, so a negative value is a usage error (exit 2) that
// names the flag on stderr and mines nothing; zero keeps meaning "all"
// and "no limit", and a negative -parallelism still runs sequentially.
func TestRunRejectsNegativeTopAndTimeout(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-sample", "-minsup", "0.3", "-top", "-3"}, "-top"},
		{[]string{"-sample", "-timeout", "-1s"}, "-timeout"},
		{[]string{"-sample", "-colocate", "-top", "-1"}, "-top"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(tc.args, &stdout, &stderr)
		if !errors.Is(err, errUsage) {
			t.Errorf("run(%q) = %v, want a usage error (exit 2)", tc.args, err)
			continue
		}
		if !strings.Contains(stderr.String(), tc.flag) {
			t.Errorf("run(%q) stderr %q does not name %s", tc.args, stderr.String(), tc.flag)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%q) mined before failing: %q", tc.args, stdout.String())
		}
	}
	for _, args := range [][]string{
		{"-sample", "-minsup", "0.3", "-top", "0"},
		{"-sample", "-timeout", "0"},
		{"-sample", "-parallelism", "-2"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil {
			t.Errorf("run(%q) = %v, want success", args, err)
		}
	}
}

// TestRunRejectsBadMinConfidence: a rule confidence outside [0, 1] (or
// NaN) is a post-parse validation error (exit 1) naming the field, not
// a silently empty or unfiltered rule list.
func TestRunRejectsBadMinConfidence(t *testing.T) {
	table := writeTempTable(t)
	for _, conf := range []string{"1.5", "-0.2", "NaN", "+Inf"} {
		for _, args := range [][]string{
			{"-sample", "-minsup", "0.3", "-rules", "-minconf", conf},
			{"-sample", "-minsup", "0.3", "-minconf", conf},
			{"-table", table, "-minsup", "0.5", "-rules", "-minconf", conf},
		} {
			var stdout, stderr bytes.Buffer
			err := run(args, &stdout, &stderr)
			if err == nil || errors.Is(err, errUsage) {
				t.Errorf("run(%q) = %v, want a validation error (exit 1)", args, err)
				continue
			}
			if !strings.Contains(err.Error(), "minConfidence") {
				t.Errorf("run(%q) error %q does not name minConfidence", args, err)
			}
			if stdout.Len() != 0 {
				t.Errorf("run(%q) mined before failing: %q", args, stdout.String())
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-sample", "-minsup", "0.3", "-rules", "-minconf", "1"}, &stdout, &stderr); err != nil {
		t.Errorf("-minconf 1 is in range but failed: %v", err)
	}
}

// writeTempTable writes a small transaction CSV and returns its path.
func writeTempTable(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "table.csv")
	if err := os.WriteFile(path, []byte("r1,a,b\nr2,a,b\nr3,a,c\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunVersionFlag: -version prints the build stamp to stdout and
// exits successfully without mining.
func TestRunVersionFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-version"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(stdout.String(), "qsrmine ") {
		t.Errorf("-version stdout = %q", stdout.String())
	}
	if strings.Contains(stdout.String(), "frequent itemsets") {
		t.Error("-version must not mine")
	}
}

// TestRunSampleToBuffers smoke-tests the happy path through the
// injectable writers: results on stdout, trace on stderr.
func TestRunSampleToBuffers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-sample", "-minsup", "0.5", "-trace"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "frequent itemsets") {
		t.Errorf("stdout missing results: %q", stdout.String())
	}
	if !strings.Contains(stderr.String(), "[trace]") {
		t.Errorf("stderr missing trace lines: %q", stderr.String())
	}
}

func TestRunMutateFlag(t *testing.T) {
	// -mutate applies the ops file before mining and goes through the
	// incremental re-extraction path, so the trace carries delta.*
	// counters and the mined table reflects the edit.
	dir := t.TempDir()
	path := filepath.Join(dir, "edits.json")
	ops := `{"ops":[{"action":"insert","layer":"slum","id":"slumX","wkt":"POLYGON ((1 1, 3 1, 3 3, 1 3, 1 1))"}]}`
	if err := os.WriteFile(path, []byte(ops), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-sample", "-minsup", "0.3", "-mutate", path, "-trace"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "frequent itemsets") {
		t.Errorf("stdout missing results: %q", stdout.String())
	}
	if !strings.Contains(stderr.String(), "delta.rows.total") {
		t.Errorf("stderr missing incremental-extraction counters: %q", stderr.String())
	}

	// The mutated run must equal mining the mutated dataset from
	// scratch (oracle check over the JSON output).
	var mutated, oracle bytes.Buffer
	if err := run([]string{"-sample", "-minsup", "0.3", "-mutate", path, "-format", "json"}, &mutated, io.Discard); err != nil {
		t.Fatal(err)
	}
	ds := qsrmine.PortoAlegreScene()
	m, err := qsrmine.LoadMutation(path)
	if err != nil {
		t.Fatal(err)
	}
	nd, _, err := ds.ApplyOps(m.Ops)
	if err != nil {
		t.Fatal(err)
	}
	f := filepath.Join(dir, "mutated.json")
	w, err := os.Create(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.WriteJSON(w); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := run([]string{"-data", f, "-minsup", "0.3", "-format", "json"}, &oracle, io.Discard); err != nil {
		t.Fatal(err)
	}
	if got, want := stripTiming(t, mutated.Bytes()), stripTiming(t, oracle.Bytes()); got != want {
		t.Errorf("mutated run diverged from from-scratch oracle:\n%s\nvs\n%s", got, want)
	}
}

// stripTiming removes the wall-clock field from a JSON result so runs
// compare on substance.
func stripTiming(t *testing.T, raw []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "miningMicros")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestRunMutateFlagErrors(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "edits.json")
	if err := os.WriteFile(good, []byte(`{"ops":[{"action":"delete","layer":"slum","id":"nope"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// -mutate is a scene operation: combined with -table it must fail.
	csv := filepath.Join(dir, "t.csv")
	if err := os.WriteFile(csv, []byte("r1,a,b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-table", csv, "-mutate", good}, io.Discard, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "-mutate") {
		t.Errorf("-table with -mutate: err = %v", err)
	}
	// Deleting a feature that does not exist fails atomically.
	if err := run([]string{"-sample", "-mutate", good}, io.Discard, io.Discard); err == nil {
		t.Error("deleting unknown feature should fail")
	}
	// Unknown fields and empty batches are rejected by the loader.
	for name, body := range map[string]string{
		"typo.json":  `{"opps":[]}`,
		"empty.json": `{"ops":[]}`,
	} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run([]string{"-sample", "-mutate", p}, io.Discard, io.Discard); err == nil {
			t.Errorf("%s should fail to load", name)
		}
	}
	if err := run([]string{"-sample", "-mutate", filepath.Join(dir, "missing.json")}, io.Discard, io.Discard); err == nil {
		t.Error("missing mutation file should fail")
	}
}

// TestRunTraceShowsLoadStage: -trace times decoding the -data scene and
// the -table CSV as the "load" stage.
func TestRunTraceShowsLoadStage(t *testing.T) {
	dir := t.TempDir()
	scene := filepath.Join(dir, "scene.json")
	w, err := os.Create(scene)
	if err != nil {
		t.Fatal(err)
	}
	if err := qsrmine.PortoAlegreScene().WriteJSON(w); err != nil {
		t.Fatal(err)
	}
	w.Close()
	table := filepath.Join(dir, "t.csv")
	if err := os.WriteFile(table, []byte("r1,a,b\nr2,a,b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"-data", scene}, {"-table", table}} {
		var stderr bytes.Buffer
		if err := run(append(args, "-minsup", "0.5", "-trace"), io.Discard, &stderr); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if !strings.Contains(stderr.String(), "stage.load.nanos") {
			t.Errorf("%v: trace has no load stage:\n%s", args, stderr.String())
		}
	}
}

// TestRunRejectsMalformedScene: a scene file with data after the
// document, or a schema key given twice, is an error rather than a
// silently truncated or merged scene.
func TestRunRejectsMalformedScene(t *testing.T) {
	dir := t.TempDir()
	for name, doc := range map[string]string{
		"trailing-data": `{"reference":{"type":"d","features":[{"id":"a","wkt":"POINT (1 2)"}]}} garbage`,
		"duplicate-key": `{"reference":{"type":"d","features":[{"id":"a","wkt":"POINT (1 2)","attrs":{"k":"v"}}],"features":[{"id":"b"}]}}`,
	} {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout bytes.Buffer
		err := run([]string{"-data", path}, &stdout, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "decoding JSON") {
			t.Errorf("%s: err = %v, want a decoding error", name, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: results written despite the error: %q", name, stdout.String())
		}
	}
}
