package main

import (
	"bytes"
	"errors"
	"flag"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
)

func TestRunVersionFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-version"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(stdout.String(), "qsrmined ") {
		t.Errorf("stdout = %q", stdout.String())
	}
	if stderr.Len() != 0 {
		t.Errorf("stderr = %q, want empty", stderr.String())
	}
}

func TestRunDumpSampleStdout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-dump-sample", "-"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	// The dumped document is exactly what POST /datasets/scene accepts.
	ds, err := dataset.ReadJSON(&stdout)
	if err != nil {
		t.Fatalf("dump is not a readable scene: %v", err)
	}
	want := dataset.PortoAlegreScene()
	if ds.Reference.Len() != want.Reference.Len() || len(ds.Relevant) != len(want.Relevant) {
		t.Errorf("dumped scene shape %d/%d, want %d/%d",
			ds.Reference.Len(), len(ds.Relevant), want.Reference.Len(), len(want.Relevant))
	}
}

func TestRunDumpSampleFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scene.json")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-dump-sample", path}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.LoadJSON(path)
	if err != nil {
		t.Fatalf("dumped file unreadable: %v", err)
	}
	if ds.Reference.Len() == 0 {
		t.Error("dumped scene is empty")
	}
}

func TestRunDataDirConflictsWithPeers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-peers", "localhost:8081", "-data-dir", t.TempDir()}, &stdout, &stderr)
	if !errors.Is(err, errUsage) {
		t.Fatalf("front node with -data-dir: err = %v, want errUsage", err)
	}
	if !strings.Contains(stderr.String(), "-data-dir") {
		t.Errorf("stderr %q does not explain the conflict", stderr.String())
	}
}

func TestRunBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-no-such-flag"}, &stdout, &stderr)
	if err == nil {
		t.Fatal("bad flag accepted")
	}
	if errors.Is(err, flag.ErrHelp) {
		t.Fatal("bad flag reported as -help")
	}
	if !errors.Is(err, errUsage) {
		t.Errorf("parse failure %v is not errUsage (main must exit 2)", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("flag errors leaked to stdout: %q", stdout.String())
	}
	if !strings.Contains(stderr.String(), "no-such-flag") {
		t.Errorf("stderr %q does not name the bad flag", stderr.String())
	}
}

// TestRunRejectsNegativeLimits: a negative numeric limit is a usage
// error naming the flag, never silently replaced by the default.
func TestRunRejectsNegativeLimits(t *testing.T) {
	for _, args := range [][]string{
		{"-workers", "-3"},
		{"-queue", "-5"},
		{"-store-max-entries", "-1"},
		{"-store-max-bytes", "-1"},
		{"-cache-max-entries", "-1"},
		{"-max-upload", "-1"},
		{"-replicas", "-2"},
		{"-default-timeout", "-1s"},
		{"-drain-timeout", "-1ms"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(append(args, "-version"), &stdout, &stderr)
		if !errors.Is(err, errUsage) {
			t.Errorf("%v: err = %v, want errUsage (exit 2)", args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: stdout = %q, want empty", args, stdout.String())
		}
		if !strings.Contains(stderr.String(), args[0]+":") {
			t.Errorf("%v: stderr %q does not name the flag", args, stderr.String())
		}
	}
	// Zero keeps the built-in default and is not an error.
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-workers", "0", "-queue", "0", "-version"}, &stdout, &stderr); err != nil {
		t.Errorf("zero limits rejected: %v", err)
	}
}
