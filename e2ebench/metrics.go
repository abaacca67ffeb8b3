package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// rssSampler samples the process's resident set size from
// /proc/self/statm every rssInterval, so that the peak of one phase of a
// run can be measured on its own: call reset when the phase starts and
// peakMB when it ends.
type rssSampler struct {
	mu    sync.Mutex
	peak  int64 // bytes
	err   error
	stopc chan struct{}
	done  chan struct{}
}

const rssInterval = 10 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	s.reset()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-tick.C:
				s.sample(false)
			}
		}
	}()
	return s
}

// sample reads the current resident size and raises the peak to it, or
// sets the peak to it when restart is true.
func (s *rssSampler) sample(restart bool) {
	rss, err := residentBytes()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.err = err
		return
	}
	if restart || rss > s.peak {
		s.peak = rss
	}
}

// reset starts a new phase at the current resident size.
func (s *rssSampler) reset() { s.sample(true) }

// peakMB returns the phase's peak resident size in MiB.
func (s *rssSampler) peakMB() (float64, error) {
	s.sample(false)
	s.mu.Lock()
	defer s.mu.Unlock()
	return float64(s.peak) / (1 << 20), s.err
}

// stop ends sampling and waits for the sampling goroutine to exit.
func (s *rssSampler) stop() {
	close(s.stopc)
	<-s.done
}

// residentBytes reads the resident set size from /proc/self/statm.
func residentBytes() (int64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0, fmt.Errorf("unexpected /proc/self/statm: %q", data)
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0, err
	}
	return pages * int64(os.Getpagesize()), nil
}

// allocSample reads the cumulative bytes allocated on the heap without
// stopping the world.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }
