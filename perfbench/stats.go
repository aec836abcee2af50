package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" method).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailQuantiles are the percentiles a tail is reported at, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// tail returns the highest percentile of xs that has at least ten samples
// beyond it, and its value.  With fewer than twenty samples no such
// percentile exists and both results are 0.
func tail(xs []float64) (q, v float64) {
	for _, q := range tailQuantiles {
		if float64(len(xs))*(1-q) >= 10 {
			return q, quantile(xs, q)
		}
	}
	return 0, 0
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS resets the kernel's resident-set high-water mark of this
// process so the next peakRSS reading covers only what follows.  Where the
// kernel refuses, peakRSS reads the process-lifetime peak instead.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, as above
}

// peakRSS returns the resident-set high-water mark in bytes, from
// /proc/self/status (VmHWM), falling back to getrusage's lifetime maximum.
func peakRSS() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "VmHWM:") {
				fields := strings.Fields(line)
				if len(fields) >= 2 {
					if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
						return kb * 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024
}

// totalAlloc returns the cumulative bytes allocated on the Go heap.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// window measures one timed stretch of work: wall clock, process CPU time,
// peak resident memory and heap allocation.
type window struct {
	wall, cpu time.Duration
	rssBytes  float64
	allocB    uint64
}

// measure runs fn inside a fresh measurement window.  Collecting garbage
// and returning freed memory to the kernel first keeps one repetition's
// leftovers from being charged to the next.
func measure(fn func()) window {
	debug.FreeOSMemory()
	resetPeakRSS()
	a0 := totalAlloc()
	c0 := cpuTime()
	t0 := time.Now()
	fn()
	w := window{wall: time.Since(t0), cpu: cpuTime() - c0}
	w.allocB = totalAlloc() - a0
	w.rssBytes = peakRSS()
	return w
}

// host describes the machine a result was measured on.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func hostFingerprint() host {
	h := host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
