package main

import (
	"math"
	"sync/atomic"
	"time"
)

// A run's window is cut into one-second slices. Latency quantiles and
// per-job costs are computed per slice, and the run reports their
// median: a stall from outside the program (the host taking the CPU
// away for a few milliseconds) then moves a few slices, not the
// reported figure.

const (
	sliceWidth = int64(time.Second)
	// minSlice is the fewest samples a slice needs to report a p99
	// with ten samples beyond it.
	minSlice = 1000
)

// sliced holds one latency histogram per slice of the window, keyed
// by the time the sample's job was submitted or due.
type sliced struct {
	start int64
	h     []*hist
	all   hist
}

func newSliced(start int64, seconds float64) *sliced {
	s := &sliced{start: start}
	for i := 0; i < int(math.Ceil(seconds*1e9/float64(sliceWidth))); i++ {
		s.h = append(s.h, new(hist))
	}
	return s
}

func (s *sliced) record(at, v int64) {
	s.all.record(v)
	if i := (at - s.start) / sliceWidth; i >= 0 && i < int64(len(s.h)) {
		s.h[i].record(v)
	}
}

// at returns the median over full slices of the q-quantile, in units
// of scale ns, or the quantile over the whole window when no slice
// holds minSlice samples.
func (s *sliced) at(q, scale float64) sample {
	var vs []float64
	for _, h := range s.h {
		if h.count() >= minSlice {
			vs = append(vs, h.quantile(q))
		}
	}
	if len(vs) == 0 {
		return s.all.at(q, scale)
	}
	return sample{median(vs) / scale, s.all.count()}
}

// meter samples the process's resource use and a completion counter
// at every slice boundary, for per-slice throughput and per-job cost.
type meter struct {
	done  *atomic.Uint64
	marks []mark
	stop  chan struct{}
	fin   chan struct{}
}

type mark struct {
	u    usage
	done uint64
}

// startMeter samples now and then every slice until stopped.
func startMeter(done *atomic.Uint64) *meter {
	m := &meter{done: done, stop: make(chan struct{}), fin: make(chan struct{})}
	m.sample()
	go func() {
		defer close(m.fin)
		t := time.NewTicker(time.Duration(sliceWidth))
		defer t.Stop()
		for {
			select {
			case <-t.C:
				m.sample()
			case <-m.stop:
				return
			}
		}
	}()
	return m
}

func (m *meter) sample() { m.marks = append(m.marks, mark{readUsage(), m.done.Load()}) }

// end stops the sampler, takes a last sample and returns the per-slice
// medians of throughput, CPU µs per job and allocations per job over
// the slices that completed at least minSlice jobs.
func (m *meter) end() (perSec, cpuUs, allocs sample) {
	close(m.stop)
	<-m.fin
	m.sample()
	var rates, cpus, mallocs []float64
	for i := 1; i < len(m.marks); i++ {
		a, b := m.marks[i-1], m.marks[i]
		n := b.done - a.done
		if n < minSlice {
			continue
		}
		rates = append(rates, float64(n)/(float64(b.u.wall-a.u.wall)/1e9))
		cpus = append(cpus, float64(b.u.cpu-a.u.cpu)/1e3/float64(n))
		mallocs = append(mallocs, float64(b.u.mallocs-a.u.mallocs)/float64(n))
	}
	first, last := m.marks[0], m.marks[len(m.marks)-1]
	total := last.done - first.done
	if len(rates) == 0 {
		c, a := perJob(first.u, last.u, total)
		return sample{float64(total) / (float64(last.u.wall-first.u.wall) / 1e9), total}, c, a
	}
	return sample{median(rates), total}, sample{median(cpus), total}, sample{median(mallocs), total}
}
