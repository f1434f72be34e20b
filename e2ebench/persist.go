package main

import (
	"io/fs"
	"path/filepath"
	"sync"
	"time"

	"repro/api"
	"repro/internal/server"
	"repro/internal/server/persist"
)

// timedPersistence is the traced pass's view of the persistence layer:
// the server's own persist.Dir, with every dataset and result save timed
// from outside. It is the only seam the benchmark adds; the untraced run
// hands the server the bare persist.Dir.
type timedPersistence struct {
	*persist.Dir

	mu    sync.Mutex
	saves saveStats
}

// saveStats totals the timed saves.
type saveStats struct {
	datasetTime, resultTime time.Duration
	datasets, results       int
}

var _ server.Persistence = (*timedPersistence)(nil)

func (p *timedPersistence) SaveDataset(digest string, body []byte, kind api.DatasetKind, rows int) error {
	start := time.Now()
	err := p.Dir.SaveDataset(digest, body, kind, rows)
	d := time.Since(start)
	p.mu.Lock()
	p.saves.datasetTime += d
	p.saves.datasets++
	p.mu.Unlock()
	return err
}

func (p *timedPersistence) SaveResult(key string, resp *api.MineResponse) error {
	start := time.Now()
	err := p.Dir.SaveResult(key, resp)
	d := time.Since(start)
	p.mu.Lock()
	p.saves.resultTime += d
	p.saves.results++
	p.mu.Unlock()
	return err
}

// snapshot returns the save totals so far.
func (p *timedPersistence) snapshot() saveStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.saves
}

// dirBytes is the total size of the files under root.
func dirBytes(root string) int64 {
	var n int64
	filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
