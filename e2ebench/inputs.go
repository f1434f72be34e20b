package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

// Input sizes. The scene is the ROADMAP's 40x40 district grid (1600
// reference rows); the table is the paper's first dataset at 20000 rows;
// the co-location scene is a clustered point scene large enough that a
// colocate request costs tens of milliseconds.
const (
	sceneGrid     = 40
	tableRows     = 20000
	colocClusters = 3000
	colocNoise    = 1500
	colocExtent   = 2000
)

// altSeed derives the second seed the shape check generates inputs for;
// no measurement ever runs on it.
func altSeed(seed int64) int64 { return seed ^ 0x5eed5eed }

// genScene generates the scene workload input and its WKT-JSON upload
// form.
func genScene(seed int64) (*dataset.Dataset, []byte, error) {
	ds, err := datagen.GenerateScene(datagen.DefaultScene(sceneGrid, sceneGrid, seed))
	if err != nil {
		return nil, nil, err
	}
	return encodeScene(ds)
}

// genColocScene generates the clustered co-location scene.
func genColocScene(seed int64) (*dataset.Dataset, []byte, error) {
	cfg := datagen.DefaultColocationScene(seed)
	cfg.Clusters, cfg.Noise, cfg.Extent = colocClusters, colocNoise, colocExtent
	ds, err := datagen.GenerateColocationScene(cfg)
	if err != nil {
		return nil, nil, err
	}
	return encodeScene(ds)
}

func encodeScene(ds *dataset.Dataset) (*dataset.Dataset, []byte, error) {
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		return nil, nil, err
	}
	return ds, buf.Bytes(), nil
}

// genTable generates the table workload input and its CSV form.
func genTable(seed int64) (*dataset.Table, []byte, error) {
	t, err := datagen.PaperDataset1(seed, tableRows)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := t.WriteTableCSV(&buf); err != nil {
		return nil, nil, err
	}
	return t, buf.Bytes(), nil
}

// shape summarises an input for the seed check: two seeds of one
// workload must give inputs of the same shape.
type shape struct {
	Rows     int      // reference features or transactions
	Layers   []string // feature types of a scene; nil for a table
	Features int      // relevant features of a scene; distinct items of a table
	Bytes    int
}

func (s shape) String() string {
	if s.Layers == nil {
		return fmt.Sprintf("%d rows, %d items, %d bytes", s.Rows, s.Features, s.Bytes)
	}
	return fmt.Sprintf("%d rows, layers %s, %d features, %d bytes", s.Rows, strings.Join(s.Layers, ","), s.Features, s.Bytes)
}

func sceneShape(ds *dataset.Dataset, body []byte) shape {
	s := shape{Rows: ds.Reference.Len(), Layers: []string{}, Bytes: len(body)}
	for _, l := range ds.Relevant {
		s.Layers = append(s.Layers, l.Type)
		s.Features += l.Len()
	}
	return s
}

func tableShape(t *dataset.Table, body []byte) shape {
	return shape{Rows: t.Len(), Features: len(t.Items()), Bytes: len(body)}
}

// sameShape reports how b differs in shape from a: row counts and layer
// names must match exactly, feature counts and byte sizes within 15%.
func sameShape(a, b shape) error {
	near := func(x, y int) bool { return float64(abs(x-y)) <= 0.15*float64(max(x, y)) }
	switch {
	case a.Rows != b.Rows:
		return fmt.Errorf("rows %d vs %d", a.Rows, b.Rows)
	case strings.Join(a.Layers, ",") != strings.Join(b.Layers, ","):
		return fmt.Errorf("layers %v vs %v", a.Layers, b.Layers)
	case !near(a.Features, b.Features):
		return fmt.Errorf("features %d vs %d", a.Features, b.Features)
	case !near(a.Bytes, b.Bytes):
		return fmt.Errorf("bytes %d vs %d", a.Bytes, b.Bytes)
	}
	return nil
}

// checkSeedShape confirms that the unused second seed yields an input of
// the same shape as the measured one, so a claim made on this seed can be
// re-checked on one its author never saw.
func checkSeedShape(e *env, what string, measured shape, gen func(seed int64) (shape, error)) error {
	alt, err := gen(altSeed(e.seed))
	if err != nil {
		return fmt.Errorf("generating %s for seed %d: %w", what, altSeed(e.seed), err)
	}
	if err := sameShape(measured, alt); err != nil {
		return fmt.Errorf("%s: seed %d and seed %d give inputs of different shape: %w", what, e.seed, altSeed(e.seed), err)
	}
	e.logf("input %s: %s (seed %d: same shape)", what, measured, altSeed(e.seed))
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// printProvenance prints what a result depends on besides the code: the
// host's processors, the Go runtime, the source revision and the seed.
func printProvenance(e *env) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	e.logf("workload %s seed %d seconds %.0f trace %v", e.workload, e.seed, e.seconds.Seconds(), e.trace)
	e.logf("provenance nproc=%d GOMAXPROCS=%d go=%s commit=%s source_sha256=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, sourceDigest(e.root))
}

// sourceDigest hashes the repository's Go sources and module file (the
// benchmark's own directory and build outputs excluded), identifying the
// code under test where no version-control metadata exists.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "e2ebench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
