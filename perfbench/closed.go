package main

import (
	"context"
	"expvar"
	"fmt"
	"sync/atomic"
	"time"

	"atmostonce"
	"atmostonce/internal/netmem"
)

// The closed-loop workloads (engine, regd): one producer keeps a fixed
// window of jobs outstanding through Dispatcher.Do with a Task
// callback, and issues the next job only when a callback has freed a
// window slot.

// closedWindow is the number of jobs kept outstanding.
const closedWindow = 256

// regdJobsPerSec sizes MaxJobs for the net: backend, which must hold
// every id a run can draw: far above the measured rate, so the id
// budget never ends a run.
const regdJobsPerSec = 100_000

// slot is one window position. Its payload and callback are method
// values bound once, so issuing a job allocates nothing in the
// benchmark itself and allocs_per_job counts only the program.
type slot struct {
	r   *closedRun
	seq uint64 // 0 = free
	id  uint64

	// t0 Do called, t1 Do returned, ts/te payload start/end, tc
	// callback: the job's span boundaries.
	t0, t1, ts, te, tc int64
	ran, cbs           int32
	tok                uint64
	res                atmostonce.JobResult

	fn func(context.Context) error
	cb func(atmostonce.JobResult)
}

func (s *slot) run(context.Context) error {
	if s.r.traced {
		s.ts = now()
	}
	s.ran++
	s.tok = token(s.r.seed, s.seq)
	if s.r.traced {
		s.te = now()
	}
	return nil
}

func (s *slot) done(res atmostonce.JobResult) {
	s.tc = now()
	s.cbs++
	s.res = res
	switch seen, tooOld := s.r.ids.set(res.ID); {
	case seen:
		s.r.oracle.add("job id %d resolved twice", res.ID)
	case tooOld:
		s.r.oracle.add("job id %d resolved after %d newer ids: too old to check for a duplicate", res.ID, recentSlots)
	}
	s.r.free <- s
}

// closedRun is one measured phase of a closed-loop workload.
type closedRun struct {
	traced bool
	seed   uint64
	free   chan *slot
	ids    recentIDs
	oracle *oracle

	warmEnd, end int64
	attempted    uint64
	failed       uint64
	completed    uint64        // callbacks inside the window
	reclaimed    atomic.Uint64 // jobs checked so far, for the meter
	done, ack    *sliced
	wait, settle hist // traced only
	spans        *spanLog
}

func newClosedRun(seed uint64, seconds float64, traced bool, or *oracle, spans *spanLog) *closedRun {
	r := &closedRun{traced: traced, seed: seed, free: make(chan *slot, closedWindow), oracle: or, spans: spans}
	r.warmEnd = now() + int64(closedWarm)
	r.end = r.warmEnd + int64(seconds*1e9)
	r.done, r.ack = newSliced(r.warmEnd, seconds), newSliced(r.warmEnd, seconds)
	for i := 0; i < closedWindow; i++ {
		s := &slot{r: r}
		s.fn, s.cb = s.run, s.done
		r.free <- s
	}
	return r
}

// reclaim checks a returned slot's job against the oracle and records
// its latencies.
func (r *closedRun) reclaim(s *slot) {
	switch {
	case s.ran != 1:
		r.oracle.add("seq %d (job %d): payload ran %d times", s.seq, s.id, s.ran)
	case s.cbs != 1:
		r.oracle.add("seq %d (job %d): %d callbacks", s.seq, s.id, s.cbs)
	case s.tok != token(r.seed, s.seq):
		r.oracle.add("seq %d: payload saw the wrong input", s.seq)
	case s.res.ID != s.id:
		r.oracle.add("seq %d: callback for job %d, Do returned %d", s.seq, s.res.ID, s.id)
	case s.res.Err != nil || s.res.Expired || s.res.Cancelled || s.res.Recovered:
		r.oracle.add("job %d resolved abnormally: %+v", s.id, s.res)
	}
	if s.tc >= r.warmEnd && s.tc < r.end {
		r.completed++
	}
	r.reclaimed.Add(1)
	if s.t0 >= r.warmEnd && s.t0 < r.end {
		r.done.record(s.t0, s.tc-s.t0)
		r.ack.record(s.t0, s.t1-s.t0)
		if r.traced {
			// A payload can start before Do returns; the submit span
			// then ends at the payload start so the spans still tile.
			t1 := min(s.t1, s.ts)
			r.wait.record(s.ts - t1)
			r.settle.record(s.tc - s.te)
			if s.seq%spanEvery == 0 {
				r.spans.job(s.id, s.seq, s.t0, t1, s.ts, s.te, s.tc)
			}
		}
	}
	s.seq, s.ran, s.cbs, s.tok = 0, 0, 0, 0
}

// loop drives the dispatcher from now until r.end and drains the
// window. onWarm runs once, when the timed window opens, and onEnd
// when it closes, before the drain.
func (r *closedRun) loop(d *atmostonce.Dispatcher, onWarm, onEnd func()) {
	ctx := context.Background()
	warmed := false
	var seq uint64
	for {
		s := <-r.free
		if s.seq != 0 {
			r.reclaim(s)
		}
		t := now()
		if !warmed && t >= r.warmEnd {
			warmed = true
			onWarm()
		}
		if t >= r.end {
			onEnd()
			r.free <- s
			break
		}
		seq++
		s.seq = seq
		r.attempted++
		s.t0 = now()
		h, err := d.Do(ctx, atmostonce.Task{Fn: s.fn, Callback: s.cb})
		s.t1 = now()
		if err != nil {
			r.failed++
			r.oracle.refuse("do_error", 1)
			s.seq = 0
			r.free <- s
			continue
		}
		s.id = h.ID
	}
	// Drain: every outstanding job must call back.
	timeout := time.After(drainTimeout)
	for parked := 0; parked < closedWindow; parked++ {
		select {
		case s := <-r.free:
			if s.seq != 0 {
				r.reclaim(s)
			}
		case <-timeout:
			missing := uint64(closedWindow - parked)
			r.failed += missing
			r.oracle.refuse("missing_event", missing)
			r.oracle.add("%d jobs never called back within %s", closedWindow-parked, drainTimeout)
			return
		}
	}
}

// closedEnv is one built set-up: the dispatcher and, for regd, its
// register server.
type closedEnv struct {
	d   *atmostonce.Dispatcher
	srv *netmem.Server
}

func (e *closedEnv) close() {
	if e.d != nil {
		e.d.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
}

func setupClosed(w string, seconds float64, traced bool) (*closedEnv, error) {
	cfg := atmostonce.DispatcherConfig{Seed: 1, Expvar: traced}
	e := &closedEnv{}
	if w == "regd" {
		e.srv = netmem.NewServer(netmem.ServerOptions{})
		addr, err := e.srv.Listen("127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, fmt.Errorf("regd listen: %w", err)
		}
		cfg.Backend = "net:" + addr + "/regd"
		if traced {
			cfg.Backend = tracedSpec(cfg.Backend)
		}
		cfg.MaxJobs = int((seconds + closedWarm.Seconds() + 1) * regdJobsPerSec)
	}
	d, err := atmostonce.NewDispatcher(cfg)
	if err != nil {
		e.close()
		return nil, fmt.Errorf("%s dispatcher: %w", w, err)
	}
	e.d = d
	return e, nil
}

// closedWarm is the untimed lead-in before a closed-loop window.
const closedWarm = time.Second

// runClosed measures one phase of engine or regd.
func runClosed(w string, seed uint64, seconds float64, traced bool, or *oracle, spans *spanLog) (*phase, error) {
	t0 := now()
	env, err := setupClosed(w, seconds, traced)
	if err != nil {
		return nil, err
	}
	setup := float64(now()-t0) / 1e9
	defer env.close()

	r := newClosedRun(seed, seconds, traced, or, spans)
	var st0, st1 atmostonce.DispatcherStats
	var net0, net1 map[string]float64
	var m *meter
	var perSec, cpuUs, allocs sample
	var rc regCounts
	r.loop(env.d, func() {
		if traced {
			regs.zero()
		}
		st0 = env.d.Stats()
		net0 = counters()
		m = startMeter(&r.reclaimed)
	}, func() {
		perSec, cpuUs, allocs = m.end()
		st1 = env.d.Stats()
		net1 = counters()
		if traced {
			rc = regs.counts()
		}
	})
	if st1.Duplicates != 0 {
		or.add("Stats().Duplicates = %d", st1.Duplicates)
	}
	if r.completed == 0 {
		return nil, fmt.Errorf("%s: no job completed in the window", w)
	}

	p := &phase{
		attempted: r.attempted,
		failed:    r.failed,
		completed: r.completed,
		setup:     setup,
		m:         map[string]sample{},
		ops:       opDeltas(net0, net1),
	}
	p.m["jobs_per_s"] = perSec
	p.m["done_p50_us"] = r.done.at(0.50, 1e3)
	p.m["done_p99_us"] = r.done.at(0.99, 1e3)
	p.m["ack_p50_us"] = r.ack.at(0.50, 1e3)
	p.m["ack_p99_us"] = r.ack.at(0.99, 1e3)
	p.m["cpu_us_per_job"], p.m["allocs_per_job"] = cpuUs, allocs
	if !traced {
		return p, nil
	}

	perf := st1.Performed - st0.Performed
	rounds := st1.Rounds - st0.Rounds
	p.m["core.steps_per_job"] = ratio(st1.Steps-st0.Steps, perf)
	p.m["core.work_per_job"] = ratio(st1.Work-st0.Work, perf)
	p.m["core.residue_per_kjob"] = ratio(1000*(st1.Residue-st0.Residue), perf)
	p.m["conc.jobs_per_round"] = ratio(perf, rounds)
	last := atmostonce.EffBuckets - 1
	p.m["conc.perfect_round_ratio"] = ratio(st1.EffHist[last]-st0.EffHist[last], rounds)
	p50, p99, cnt := expvarRound(env.d.ExpvarName())
	p.m["conc.round_p50_us"] = sample{p50, cnt}
	p.m["conc.round_p99_us"] = sample{p99, cnt}
	p.m["dispatch.do_p50_ns"] = r.ack.all.at(0.50, 1)
	p.m["dispatch.do_p99_ns"] = r.ack.all.at(0.99, 1)
	p.m["dispatch.wait_p50_us"] = r.wait.at(0.50, 1e3)
	p.m["dispatch.wait_p99_us"] = r.wait.at(0.99, 1e3)
	p.m["dispatch.resolve_p50_us"] = r.settle.at(0.50, 1e3)
	p.m["dispatch.resolve_p99_us"] = r.settle.at(0.99, 1e3)
	p.netmemLayer(net0, net1, perf)
	p.regLayer(rc, perf, 0)
	return p, nil
}

// expvarRound reads the round-duration quantiles (µs) from the
// dispatcher's registry snapshot, published under name.
func expvarRound(name string) (p50, p99 float64, n uint64) {
	v, ok := expvar.Get(name).(expvar.Func)
	if !ok {
		fatalf("dispatcher registry %q is not published", name)
	}
	snap, _ := v().(map[string]any)
	h, ok := snap["amo_dispatcher_round_duration_seconds"].(map[string]any)
	if !ok {
		fatalf("no round-duration histogram in the dispatcher registry")
	}
	return h["p50"].(float64) * 1e6, h["p99"].(float64) * 1e6, h["count"].(uint64)
}

func ratio(a, b uint64) sample {
	if b == 0 {
		return sample{0, 0}
	}
	return sample{float64(a) / float64(b), b}
}
