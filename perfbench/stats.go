package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// instant is a reading of two clocks: the wall clock, which bounds how
// long a run measures, and the process's CPU clock, which the timed
// metrics are measured on (serve's op latencies on the client thread's
// CPU clock, see serveLoop). On a shared machine a process that is ready to
// run is often not running; the wall clock charges those gaps to the
// program, the CPU clock does not. With GOMAXPROCS=1 the process runs at
// most one Go thread at a time, so its CPU time is the time it spent
// serving, the garbage collector included.
type instant struct {
	wall time.Time
	cpu  time.Duration
}

func now() instant { return instant{wall: time.Now(), cpu: processCPU()} }

// since returns the CPU time used since i.
func (i instant) since() time.Duration { return processCPU() - i.cpu }

// add moves i later on both clocks, to leave an untimed pause out.
func (i instant) add(wall, cpu time.Duration) instant {
	return instant{wall: i.wall.Add(wall), cpu: i.cpu + cpu}
}

// processCPU reads CLOCK_PROCESS_CPUTIME_ID: the CPU time of all the
// process's threads.
func processCPU() time.Duration { return cpuClock(2, "CLOCK_PROCESS_CPUTIME_ID") }

// threadCPU reads CLOCK_THREAD_CPUTIME_ID: the CPU time of the calling
// thread. It times one op only on a goroutine locked to its thread.
func threadCPU() time.Duration { return cpuClock(3, "CLOCK_THREAD_CPUTIME_ID") }

func cpuClock(id uintptr, name string) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("clock_gettime(" + name + "): " + e.Error())
	}
	return time.Duration(ts.Nano())
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func durationQuantile(ds []time.Duration, q float64) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(quantile(xs, q))
}

// runtimeSample reads cumulative heap allocation and CPU accounting from
// the Go runtime without stopping the world.
type runtimeSample struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

var sampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(sampleNames))
	for i, n := range sampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

func heapAllocBytes() uint64 { return readRuntime().allocBytes }

// gcCPUPct is the share of CPU time the garbage collector used between
// two samples.
func gcCPUPct(a, b runtimeSample) float64 {
	if b.totalCPU <= a.totalCPU {
		return 0
	}
	return 100 * (b.gcCPU - a.gcCPU) / (b.totalCPU - a.totalCPU)
}

// resetPeakRSS restarts the kernel's resident-set high-water mark
// (VmHWM) at the current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, os.ErrNotExist
}
