package main

import (
	"bufio"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// heapSampler tracks the peak heap size — the live heap the garbage
// collector last marked — by sampling the runtime every few milliseconds.
type heapSampler struct {
	stopc chan struct{}
	done  chan struct{}
	peak  uint64
}

const heapMetric = "/gc/heap/live:bytes"

func readHeap() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			if v := readHeap(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	<-h.done
	if v := readHeap(); v > h.peak {
		h.peak = v
	}
	return h.peak
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// histogram counts durations in log-linear buckets: exact below 64 ns,
// then 64 buckets per power of two, each at most 1.6% wide. A quantile
// interpolates within its bucket, so it varies smoothly with the data
// instead of stepping from bucket to bucket. Adding never allocates.
type histogram struct {
	counts [64 + 58*64]uint32
}

func bucketOf(d time.Duration) int {
	ns := uint64(d)
	if d < 0 {
		ns = 0
	}
	if ns < 64 {
		return int(ns)
	}
	shift := bits.Len64(ns) - 7
	return 64 + shift*64 + int(ns>>shift) - 64
}

// bucketSpan returns the lowest value bucket i holds and its width.
func bucketSpan(i int) (lo, width float64) {
	if i < 64 {
		return float64(i), 1
	}
	shift := (i - 64) / 64
	return float64(uint64((i-64)%64+64) << shift), float64(uint64(1) << shift)
}

func (h *histogram) add(d time.Duration) { h.counts[bucketOf(d)]++ }

func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

func (h *histogram) count() uint64 {
	var n uint64
	for _, c := range h.counts {
		n += uint64(c)
	}
	return n
}

// quantile returns the q-quantile (0 < q ≤ 1): the nearest-rank sample's
// bucket, with the samples of that bucket taken as spread evenly across
// it.
func (h *histogram) quantile(q float64) time.Duration {
	n := h.count()
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	var cum uint64
	for i, c := range h.counts {
		if c == 0 || cum+uint64(c) < rank {
			cum += uint64(c)
			continue
		}
		lo, width := bucketSpan(i)
		return time.Duration(lo + width*(float64(rank-cum)-0.5)/float64(c))
	}
	return 0
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs,
// sorting xs in place.
func percentile(xs []time.Duration, p float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	k := int(p*float64(len(xs))+0.999999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(xs) {
		k = len(xs) - 1
	}
	return xs[k]
}

// median returns the median of xs (sorting a copy).
func median[T ~int64 | ~float64](xs []T) T {
	c := append([]T(nil), xs...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	n := len(c)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// maxSetupReps caps how often a quick setup repeats to fill setupMin.
const maxSetupReps = 49

// medianSetup times build at least setupReps times, and until setupMin is
// spent (at most maxSetupReps times), so a quick setup's median rests on
// enough samples to be steady. reset runs between builds, untimed, and
// releases what the previous build made. It returns the median.
func medianSetup(sc scale, build, reset func() error) (time.Duration, error) {
	var times []time.Duration
	var spent time.Duration
	for rep := 0; rep < sc.setupReps || (spent < sc.setupMin && rep < maxSetupReps); rep++ {
		if rep > 0 {
			if err := reset(); err != nil {
				return 0, err
			}
			runtime.GC()
		}
		t0 := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		times = append(times, d)
		spent += d
	}
	return median(times), nil
}

// span is one timed call into a layer. Start and End are nanoseconds
// since the recorder's base; Parent is the index of the enclosing span
// (-1 for a root) and Req the request (batch) the call served.
type span struct {
	Name   string
	Start  int64
	End    int64
	Parent int32
	Req    int64
}

// spanRecorder keeps spans in memory; write dumps them when the run ends.
// It is safe for concurrent use.
type spanRecorder struct {
	base time.Time
	mu   sync.Mutex
	sp   []span
}

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{base: time.Now()}
}

// now returns the recorder clock in nanoseconds.
func (r *spanRecorder) now() int64 { return int64(time.Since(r.base)) }

// add records a finished span and returns its index.
func (r *spanRecorder) add(name string, start, end int64, parent int32, req int64) int32 {
	r.mu.Lock()
	r.sp = append(r.sp, span{name, start, end, parent, req})
	i := int32(len(r.sp) - 1)
	r.mu.Unlock()
	return i
}

// open records a span whose end is not yet known; close sets it.
func (r *spanRecorder) open(name string, parent int32, req int64) int32 {
	return r.add(name, r.now(), 0, parent, req)
}

func (r *spanRecorder) close(i int32) {
	end := r.now()
	r.mu.Lock()
	r.sp[i].End = end
	r.mu.Unlock()
}

// selfTime returns, per span name, the summed self time — each span's
// duration minus the part its direct children cover — and the span count.
func (r *spanRecorder) selfTime() (map[string]time.Duration, map[string]int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]int64, len(r.sp))
	for _, s := range r.sp {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self, count := map[string]time.Duration{}, map[string]int{}
	for i, s := range r.sp {
		self[s.Name] += time.Duration(s.End - s.Start - child[i])
		count[s.Name]++
	}
	return self, count
}

// write dumps every span as JSON lines, after a header line carrying the
// provenance.
func (r *spanRecorder) write(path, header string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if dir := filepath.Dir(path); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, header)
	for i, s := range r.sp {
		fmt.Fprintf(w, `{"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"req":%d}`+"\n",
			i, s.Name, s.Start, s.End, s.Parent, s.Req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// clockCost measures the cost of one recorder clock read, the overhead
// every span boundary adds; the ladder subtracts it from span durations.
func clockCost() time.Duration {
	r := newSpanRecorder()
	const n = 200000
	best := time.Duration(1 << 62)
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		var sink int64
		for i := 0; i < n; i++ {
			sink += r.now()
		}
		if d := time.Since(t0) / n; d < best && sink != 0 {
			best = d
		}
	}
	return best
}
