package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// tailPerMille lists the percentiles the benchmark may report, highest
// first, in per-mille so the rank arithmetic stays exact.
var tailPerMille = []int{999, 990, 900, 500}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// rankOf returns the 1-based nearest rank of per-mille percentile pm in n
// sorted samples: ceil(pm*n/1000).
func rankOf(pm, n int) int {
	r := (pm*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// tailPercentile returns the highest percentile (per-mille) of
// tailPerMille that leaves at least minBeyond samples beyond it, or 0 when
// even the median does not.
func tailPercentile(n int) int {
	for _, pm := range tailPerMille {
		if n-rankOf(pm, n) >= minBeyond {
			return pm
		}
	}
	return 0
}

// percentile returns the nearest-rank per-mille percentile of xs (sorted
// in place). It returns 0 for an empty sample.
func percentile(xs []float64, pm int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rankOf(pm, len(xs))-1]
}

// median returns the median of xs by the same nearest-rank rule.
func median(xs []float64) float64 { return percentile(xs, 500) }

// maxOf returns the largest value of xs (0 when empty).
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() (float64, error) {
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
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runtimeSample holds the Go runtime counters the traced run reports.
type runtimeSample struct {
	gcCPU, totalCPU, allocBytes float64
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		s[i].Name = name
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: val(s[0].Value), totalCPU: val(s[1].Value), allocBytes: val(s[2].Value)}
}
