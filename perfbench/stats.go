package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/stats"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail figure resting on fewer is noise.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of samples and
// whether at least minBeyond samples lie strictly beyond its rank.
func percentile(samples []float64, p float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n-rank >= minBeyond
}

// median is the 0.5 nearest-rank percentile; the beyond rule never binds
// for it at the sample counts the benchmark needs.
func median(samples []float64) float64 {
	v, _ := percentile(samples, 0.5)
	return v
}

// histDelta returns the distribution of samples observed between two
// snapshots of one stats.Hist.
func histDelta(before, after stats.HistSnapshot) stats.HistSnapshot {
	prev := make(map[int64]uint64, len(before.Buckets))
	for _, b := range before.Buckets {
		prev[b.Le] = b.Count
	}
	d := stats.HistSnapshot{Count: after.Count - before.Count, Sum: after.Sum - before.Sum, Max: after.Max}
	for _, b := range after.Buckets {
		if c := b.Count - prev[b.Le]; c > 0 {
			d.Buckets = append(d.Buckets, stats.HistBucket{Le: b.Le, Count: c})
		}
	}
	return d
}

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	at      time.Time
	cpu     time.Duration // user + system
	alloc   uint64        // cumulative heap bytes allocated
	gcCPU   float64       // cumulative GC CPU seconds
	totCPU  float64       // cumulative CPU seconds the runtime accounts for
	gcCount uint64
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: getrusage:", err)
	}
	s := make([]metrics.Sample, len(usageSamples))
	copy(s, usageSamples)
	metrics.Read(s)
	return usage{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   s[0].Value.Uint64(),
		gcCPU:   s[1].Value.Float64(),
		totCPU:  s[2].Value.Float64(),
		gcCount: s[3].Value.Uint64(),
	}
}

// rssPeakMB is the process's peak resident set size (Linux reports KiB).
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// ms and us convert a duration to fractional milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// mean of a float slice; zero when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
