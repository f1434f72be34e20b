package main

import (
	"crypto/sha256"
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// refCalibrationMs is the CPU time the calibration loop takes on the
// host the benchmark was built on (a 2-vCPU Xeon virtual machine).
// Gated CPU times are reported at that host's speed: a measured CPU
// time is scaled by refCalibrationMs over the run's median calibration
// time, so a figure moves when the program does more or less work, not
// when other tenants of the machine slow it down.
const refCalibrationMs = 33.0

// calibrator is a fixed piece of work, independent of the program under
// test, whose CPU time tracks how fast the host runs right now: sorting,
// hashing and dependent random reads over a 16 MiB table. It allocates
// nothing after construction, so the garbage collector never adds to it.
type calibrator struct {
	src, work []int
	buf       []byte
	next      []uint32
	sink      uint32
	samples   []float64
}

func newCalibrator() *calibrator {
	rng := rand.New(rand.NewSource(1))
	c := &calibrator{
		src:  make([]int, 120_000),
		work: make([]int, 120_000),
		buf:  make([]byte, 512<<10),
		next: make([]uint32, 4<<20),
	}
	for i := range c.src {
		c.src[i] = rng.Int()
	}
	rng.Read(c.buf)
	// One random cycle through the table, so each read depends on the
	// previous one and misses the cache.
	perm := rng.Perm(len(c.next))
	for i := range perm {
		c.next[perm[i]] = uint32(perm[(i+1)%len(perm)])
	}
	return c
}

// measure runs the calibration work once on a locked thread and records
// that thread's CPU time.
func (c *calibrator) measure() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	copy(c.work, c.src)
	sort.Ints(c.work)
	sum := sha256.Sum256(c.buf)
	p := uint32(sum[0])
	for i := 0; i < 150_000; i++ {
		p = c.next[p]
	}
	c.sink += p
	c.samples = append(c.samples, ms(threadCPU()-t0))
}

// scale is the factor that converts CPU time measured during this run to
// the reference host's speed.
func (c *calibrator) scale() float64 {
	return refCalibrationMs / median(c.samples)
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration { return cpuClock(3) } // CLOCK_THREAD_CPUTIME_ID

// processCPU is this process's CPU time, all threads.
func processCPU() time.Duration { return cpuClock(2) } // CLOCK_PROCESS_CPUTIME_ID

// cpuClock reads a Linux CPU-time clock, which counts nanoseconds where
// getrusage counts scheduler ticks.
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
