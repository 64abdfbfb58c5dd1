package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a p99 needs at least 1000 samples, a p90 at least 100.
const minTail = 10

// tailQuantile returns the highest of p99.9, p99, p90 and p50 that n
// samples support with at least minTail samples beyond it, or 0 when
// even the median is unsupported.
func tailQuantile(n int) float64 {
	for _, t := range []struct {
		q      float64
		beyond int // 1/(1-q), exactly
	}{{0.999, 1000}, {0.99, 100}, {0.9, 10}, {0.5, 2}} {
		if n >= minTail*t.beyond {
			return t.q
		}
	}
	return 0
}

// quantile returns the nearest-rank q-quantile of sorted.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// latency summarises one sample of durations in nanoseconds.
type latency struct {
	N     int
	P50us float64
	P90us float64
	// TailQ is the highest percentile up to p99 the sample supports
	// (tailQuantile) and TailUs its value: a metric named p99 carries
	// TailUs, which falls back to p90 or the median for a small sample
	// and is 0 when even the median is unsupported. P90us likewise is 0
	// below 100 samples.
	TailQ  float64
	TailUs float64
}

func summarize(ns []int64) latency {
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	l := latency{N: len(s)}
	if len(s) == 0 {
		return l
	}
	l.P50us = float64(quantile(s, 0.5)) / 1e3
	l.TailQ = tailQuantile(len(s))
	if l.TailQ >= 0.9 {
		l.P90us = float64(quantile(s, 0.9)) / 1e3
	}
	if l.TailQ > 0.99 {
		l.TailQ = 0.99
	}
	if l.TailQ > 0 {
		l.TailUs = float64(quantile(s, l.TailQ)) / 1e3
	}
	return l
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// heapSampler records the peak of the live heap — the bytes the last
// garbage collection found reachable — while it runs. Unlike the heap's
// total size it does not depend on when collections happen to run.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

const heapMetric = "/gc/heap/live:bytes"

func readHeap() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.peak.Store(readHeap())
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	v := readHeap()
	for {
		p := h.peak.Load()
		if v <= p || h.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// Stop ends sampling and returns the peak in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	h.sample()
	return float64(h.peak.Load()) / (1 << 20)
}

// runtimeWindow measures process-wide allocations and the share of CPU
// time spent in the garbage collector between its start and end.
type runtimeWindow struct {
	mallocs         uint64
	gcCPU, totalCPU float64
}

var cpuMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() runtimeWindow {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(cpuMetrics))
	for i, n := range cpuMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeWindow{mallocs: ms.Mallocs, gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64()}
}

// since returns allocations made and the GC's CPU share since w.
func (w runtimeWindow) since() (allocs uint64, gcFraction float64) {
	now := readRuntime()
	if d := now.totalCPU - w.totalCPU; d > 0 {
		gcFraction = (now.gcCPU - w.gcCPU) / d
	}
	return now.mallocs - w.mallocs, gcFraction
}
