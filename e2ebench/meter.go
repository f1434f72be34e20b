package main

import (
	"bytes"
	"os"
	"strconv"
	"time"
)

// cpuSpan is the CPU time this process, all threads, spends while fn
// runs. The gated metrics are CPU times because on a shared virtual
// machine the wall clock also counts other tenants' load.
func cpuSpan(fn func() error) (time.Duration, error) {
	t0 := processCPU()
	err := fn()
	return processCPU() - t0, err
}

// unstolenCPU is cpuSpan less the machine's stolen share over the same
// interval. On a guest whose kernel charges part of the stolen time to
// the process that was running, this keeps a CPU-bound process's figure
// from rising with other tenants' load.
func unstolenCPU(fn func() error) (time.Duration, error) {
	st := startSteal()
	d, err := cpuSpan(fn)
	return time.Duration(float64(d) * (1 - st.share())), err
}

// hostTicks reads the machine-wide CPU tick counters from /proc/stat:
// ticks stolen by the hypervisor and all ticks. Both are 0 where the
// file does not exist.
func hostTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	for i, v := range f[1:] {
		n, err := strconv.ParseFloat(string(v), 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = n
		}
	}
	return steal, total
}

// stealMeter reports the share of machine CPU time stolen while it ran.
type stealMeter struct{ steal, total float64 }

func startSteal() stealMeter {
	s, t := hostTicks()
	return stealMeter{s, t}
}

func (m stealMeter) share() float64 {
	s, t := hostTicks()
	return ratio(s-m.steal, t-m.total)
}

// rssSampler records the process's peak resident set size while it runs.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak int64
}

// startRSSSampler samples the resident set size every interval until
// Stop is called.
func startRSSSampler(interval time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			s.peak = max(s.peak, residentBytes())
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// Stop ends sampling and returns the peak in MiB.
func (s *rssSampler) Stop() float64 {
	close(s.stop)
	<-s.done
	s.peak = max(s.peak, residentBytes())
	return float64(s.peak) / (1 << 20)
}

// residentBytes reads the resident set size from /proc/self/statm (0
// where that file does not exist).
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}
