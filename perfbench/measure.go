package main

import (
	"math"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// hist is a log-linear latency histogram: 2^histSub buckets per power of
// two, so a bucket is at most 1/128 wide relative to its value. It has a
// fixed size and never allocates while recording, so keeping one per
// caller and slice does not pollute alloc_bytes_per_op.
type hist struct {
	counts [histOctaves << histSub]uint32
	n      uint64
}

const (
	histSub     = 7  // log2 of buckets per octave
	histOctaves = 40 // covers 1ns .. ~18 minutes
)

// histBytes is the heap footprint of one hist, subtracted from the live
// heap so the benchmark's own bookkeeping is not charged to the store.
const histBytes = 4*(histOctaves<<histSub) + 8

func bucketOf(ns int64) int {
	if ns < 1 {
		ns = 1
	}
	v := uint64(ns)
	exp := bits.Len64(v) - 1 // v in [2^exp, 2^(exp+1))
	if exp < histSub {
		return int(v) // exact for tiny values
	}
	mant := (v >> (uint(exp) - histSub)) & (1<<histSub - 1)
	b := (exp-histSub+1)<<histSub | int(mant)
	if b >= len(hist{}.counts) {
		b = len(hist{}.counts) - 1
	}
	return b
}

// bucketBounds returns the [lo, hi) nanosecond range of bucket b.
func bucketBounds(b int) (lo, hi float64) {
	if b < 1<<histSub {
		return float64(b), float64(b + 1)
	}
	exp := b>>histSub + histSub - 1
	mant := b & (1<<histSub - 1)
	width := math.Ldexp(1, exp-histSub)
	lo = math.Ldexp(1, exp) + float64(mant)*width
	return lo, lo + width
}

func (h *hist) add(d time.Duration) {
	h.counts[bucketOf(int64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, interpolating linearly
// inside the bucket that holds the rank.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var seen float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) > rank {
			lo, hi := bucketBounds(b)
			return lo + (hi-lo)*(rank-seen+0.5)/float64(c)
		}
		seen += float64(c)
	}
	lo, _ := bucketBounds(len(h.counts) - 1)
	return lo
}

// recorder collects one caller's latencies, one hist per slice of the
// measured window, for reads and writes separately. Each caller owns its
// recorder, so recording takes no lock.
type recorder struct {
	start time.Time
	slice time.Duration
	reads []*hist
	write []*hist
}

func newRecorder(start time.Time, window, slice time.Duration) *recorder {
	n := int((window + slice - 1) / slice)
	r := &recorder{start: start, slice: slice, reads: make([]*hist, n), write: make([]*hist, n)}
	for i := range r.reads {
		r.reads[i], r.write[i] = new(hist), new(hist)
	}
	return r
}

func (r *recorder) bytes() int { return 2 * len(r.reads) * histBytes }

func (r *recorder) at(end time.Time) int {
	i := int(end.Sub(r.start) / r.slice)
	if i >= len(r.reads) {
		i = len(r.reads) - 1
	}
	if i < 0 {
		i = 0
	}
	return i
}

func (r *recorder) read(t0, t1 time.Time)  { r.reads[r.at(t1)].add(t1.Sub(t0)) }
func (r *recorder) wrote(t0, t1 time.Time) { r.write[r.at(t1)].add(t1.Sub(t0)) }

// sliceStats merges the callers' recorders slice by slice.
type sliceStats struct {
	slice        time.Duration
	reads, write []*hist
}

func mergeRecorders(rs []*recorder) sliceStats {
	st := sliceStats{slice: rs[0].slice}
	for i := range rs[0].reads {
		rh, wh := new(hist), new(hist)
		for _, r := range rs {
			rh.merge(r.reads[i])
			wh.merge(r.write[i])
		}
		st.reads = append(st.reads, rh)
		st.write = append(st.write, wh)
	}
	return st
}

func total(hs []*hist) uint64 {
	var n uint64
	for _, h := range hs {
		n += h.n
	}
	return n
}

// overSlices is the interquartile mean over slices of f(slice): the mean
// of the middle half of the per-slice values. Dropping the outer quarters
// keeps a descheduled second on a shared machine from moving the run's
// figure; averaging the middle half follows a workload whose throughput
// drifts as its layout refines, where the single median slice would not.
func overSlices(hs []*hist, f func(h *hist) float64) float64 {
	var vals []float64
	for _, h := range hs {
		if h.n > 0 {
			vals = append(vals, f(h))
		}
	}
	return iqm(vals)
}

// opsPerSec is the interquartile mean over slices of operations completed
// per second.
func (st sliceStats) opsPerSec() float64 {
	vals := make([]float64, len(st.reads))
	for i := range st.reads {
		vals[i] = float64(st.reads[i].n+st.write[i].n) / st.slice.Seconds()
	}
	return iqm(vals)
}

// iqm is the interquartile mean: the mean of vals without its lowest and
// highest quarter.
func iqm(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantileOf returns the nearest-rank q-quantile of durations.
func quantileOf(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(math.Ceil(q*float64(len(s)-1)))]
}

// procSample is a snapshot of the process counters a window is charged
// with: heap allocation and GC CPU time and cycles.
type procSample struct {
	totalAlloc uint64
	gcCPU      float64
	allCPU     float64
	gcCycles   uint64
}

var procMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(procMetricNames))
	for i, n := range procMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return procSample{
		totalAlloc: ms.TotalAlloc,
		gcCPU:      s[0].Value.Float64(),
		allCPU:     s[1].Value.Float64(),
		gcCycles:   s[2].Value.Uint64(),
	}
}

// procDelta is what a window cost the process.
type procDelta struct {
	allocBytes float64
	gcCPUFrac  float64
	gcCycles   float64
}

func deltaProc(a, b procSample) procDelta {
	d := procDelta{
		allocBytes: float64(b.totalAlloc - a.totalAlloc),
		gcCycles:   float64(b.gcCycles - a.gcCycles),
	}
	if cpu := b.allCPU - a.allCPU; cpu > 0 {
		d.gcCPUFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	return d
}

// liveHeapMiB forces a collection and returns the heap still in use,
// minus the given bytes of benchmark bookkeeping. The second collection
// empties the sync.Pool victim caches the first one only demoted.
func liveHeapMiB(own int) float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(int64(ms.HeapAlloc)-int64(own)) / (1 << 20)
}
