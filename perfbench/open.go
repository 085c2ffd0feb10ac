package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"atmostonce/internal/jobd"
	"atmostonce/internal/obs"
)

// The open-loop workloads (jobd, jobd-durable): Poisson arrivals at a
// fixed rate, drawn from the seed, submitted to an in-process job
// server over two loopback connections. Each connection submits for
// its own tenant and subscribes to it; a job is complete when its
// event reaches the client. Latencies run from the job's due time, so
// a stall also charges the jobs queued behind it.

const (
	openConns   = 2
	openWorkers = 32 // concurrent Submit calls per connection: well above rate × ack latency
	openQueue   = 4096
	highEvery   = 8  // one submit in highEvery is High priority, on average
	trackBits   = 15 // 32,768 slots: 4 s of arrivals at 8,000/s can be outstanding
	trackMask   = 1<<trackBits - 1
	seqBits     = 40 // payload: sequence number in the low 40 bits, a seeded tag above
)

// openRates are the fixed arrival rates (see README.md). jobd-durable
// runs at about half the capacity measured for it. jobd runs well
// below its capacity, so that a 20 s run's 160,000 arrivals stay under
// the 174,762 admissions a fresh default server takes before its
// descriptor log is full.
var openRates = map[string]float64{"jobd": 8_000, "jobd-durable": 2_000}

// track joins a job's acknowledgement (seen by the submitting worker)
// with its completion event (seen by the connection's reader), which
// arrive in either order. Slots are indexed by job id; whichever side
// arrives second records the job's latencies.
type track struct {
	state atomic.Uint32 // bit 0: ack side stored, bit 1: event side stored
	ackID uint64
	seq   uint64
	due   int64
	ack   int64
	evID  uint64
	ev    int64
}

// execTimes are the payload's start and end, indexed by sequence
// number (traced runs only).
type execTimes struct{ start, end atomic.Int64 }

type arrival struct {
	seq  uint64
	due  int64
	high bool
}

// openRun is one measured phase of an open-loop workload.
type openRun struct {
	traced bool
	seed   uint64
	oracle *oracle
	spans  *spanLog

	tracks []track
	execs  []execTimes

	accepted, evented, executed bitset
	nAccepted, nEvents, nExec   atomic.Uint64
	lastEvent                   atomic.Int64

	ack, done              *sliced
	late, toStart, toEvent hist
}

func newOpenRun(seed uint64, traced bool, or *oracle, spans *spanLog) *openRun {
	r := &openRun{traced: traced, seed: seed, oracle: or, spans: spans, tracks: make([]track, 1<<trackBits)}
	r.ack, r.done = &sliced{}, &sliced{}
	if traced {
		r.execs = make([]execTimes, 1<<trackBits)
	}
	return r
}

func payloadTag(seed, seq uint64) uint64 { return token(seed, seq) >> seqBits }

// task is the registered noop@1: it checks its input and marks its
// sequence number executed.
func (r *openRun) task(_ context.Context, payload []byte) error {
	var t0 int64
	if r.traced {
		t0 = now()
	}
	if len(payload) != 8 {
		r.oracle.add("payload of %d bytes", len(payload))
		return nil
	}
	v := binary.LittleEndian.Uint64(payload)
	seq := v & (1<<seqBits - 1)
	if v>>seqBits != payloadTag(r.seed, seq) {
		r.oracle.add("seq %d: payload corrupted", seq)
	}
	if r.executed.set(seq) {
		r.oracle.add("seq %d executed twice", seq)
	}
	r.nExec.Add(1)
	if r.traced {
		e := &r.execs[seq&trackMask]
		e.start.Store(t0)
		e.end.Store(now())
	}
	return nil
}

func (r *openRun) onEvent(ev jobd.Event) {
	t := now()
	if ev.Status != jobd.StatusOK {
		r.oracle.add("job %d completed with status %s %s", ev.ID, ev.Status, ev.Err)
	}
	if r.evented.set(ev.ID) {
		r.oracle.add("job %d: second completion event", ev.ID)
		return
	}
	r.nEvents.Add(1)
	for {
		last := r.lastEvent.Load()
		if t <= last || r.lastEvent.CompareAndSwap(last, t) {
			break
		}
	}
	tr := &r.tracks[ev.ID&trackMask]
	tr.evID, tr.ev = ev.ID, t
	if orState(&tr.state, 2)&1 != 0 {
		r.join(tr)
	}
}

func (r *openRun) onAck(id uint64, a arrival, t int64) {
	if !inRange(id) || r.accepted.set(id) {
		r.oracle.add("job id %d assigned twice (or out of range)", id)
		return
	}
	r.nAccepted.Add(1)
	r.ack.record(a.due, t-a.due)
	tr := &r.tracks[id&trackMask]
	if tr.state.Load()&1 != 0 {
		r.oracle.add("tracking ring overflow at job %d: a job %d ids older is still outstanding", id, 1<<trackBits)
		return
	}
	tr.ackID, tr.seq, tr.due, tr.ack = id, a.seq, a.due, t
	if orState(&tr.state, 1)&2 != 0 {
		r.join(tr)
	}
}

// join records a job whose acknowledgement and event have both been
// seen, and frees its slot.
func (r *openRun) join(tr *track) {
	defer tr.state.Store(0)
	if tr.ackID != tr.evID {
		r.oracle.add("tracking ring overflow: job %d met job %d", tr.ackID, tr.evID)
		return
	}
	r.done.record(tr.due, tr.ev-tr.due)
	if !r.traced {
		return
	}
	e := &r.execs[tr.seq&trackMask]
	start, end := e.start.Load(), e.end.Load()
	r.toStart.record(start - tr.due)
	r.toEvent.record(tr.ev - end)
	if tr.seq%spanEvery == 0 {
		// The ack can reach the client after the payload started; the
		// submit span then ends at the start so the spans still tile.
		r.spans.job(tr.ackID, tr.seq, tr.due, min(tr.ack, start), start, end, tr.ev)
	}
}

// openEnv is one built set-up: the server, its clients and, for the
// durable workload, its register directory.
type openEnv struct {
	srv     *jobd.Server
	clients []*jobd.Client
	dir     string
}

func (e *openEnv) close() {
	for _, c := range e.clients {
		c.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

func tenant(i int) string { return "t" + strconv.Itoa(i) }

var setupSeq atomic.Int64

func setupOpen(w, workDir string, traced bool, r *openRun) (*openEnv, error) {
	e := &openEnv{}
	reg := jobd.NewRegistry()
	reg.Register("noop", 1, r.task)
	backend := ""
	if w == "jobd-durable" {
		e.dir = filepath.Join(workDir, fmt.Sprintf("regs-%d-%d", os.Getpid(), setupSeq.Add(1)))
		if err := os.MkdirAll(e.dir, 0o755); err != nil {
			return nil, err
		}
		backend = "mmap:" + filepath.Join(e.dir, "jobd")
	}
	if traced {
		backend = tracedSpec(backend)
	}
	srv, err := jobd.New(jobd.Options{Registry: reg, Backend: backend, DefaultLimits: &jobd.TenantLimits{}})
	if err != nil {
		e.close()
		return nil, fmt.Errorf("%s server: %w", w, err)
	}
	e.srv = srv
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, fmt.Errorf("%s listen: %w", w, err)
	}
	for i := 0; i < openConns; i++ {
		c, err := jobd.Dial(addr, jobd.ClientOptions{Name: "perfbench-" + tenant(i)})
		if err != nil {
			e.close()
			return nil, fmt.Errorf("%s dial: %w", w, err)
		}
		e.clients = append(e.clients, c)
		if err := c.Subscribe(tenant(i), r.onEvent); err != nil {
			e.close()
			return nil, fmt.Errorf("%s subscribe: %w", w, err)
		}
	}
	return e, nil
}

// generate sends the seeded arrival stream to the connections' queues
// until end, sleeping until each arrival is due.
//
// It sleeps with nanosleep on its own OS thread, not with time.Sleep.
// When the process has an idle CPU, Go's runtime waits for its next
// timer in epoll, whose timeout is in whole milliseconds, so a
// time.Sleep shorter than 1 ms oversleeps by about half a millisecond
// on average. Latencies run from the due time, so that would be most
// of what the open-loop workloads measure. The thread's timer slack
// is cut from the kernel's default 50 µs to 1 µs for the same reason.
func generate(seed uint64, rate float64, start, end int64, qs []chan arrival) uint64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, 1000, 0)
	rng := rand.New(rand.NewPCG(seed, 0x6a6f6264))
	due := start
	var seq uint64
	for {
		due += int64(rng.ExpFloat64() / rate * 1e9)
		if due >= end {
			break
		}
		seq++
		a := arrival{seq: seq, due: due, high: rng.IntN(highEvery) == 0}
		q := qs[rng.IntN(len(qs))]
		for d := due - now(); d > 0; d = due - now() {
			ts := syscall.NsecToTimespec(d)
			syscall.Nanosleep(&ts, nil) // an early wake (EINTR) just loops
		}
		q <- a
	}
	for _, q := range qs {
		close(q)
	}
	return seq
}

// submitter is one of a connection's workers: it takes due arrivals
// off the queue and submits them.
func (r *openRun) submitter(c *jobd.Client, conn int, q <-chan arrival, failed *atomic.Uint64) {
	var buf [8]byte
	for a := range q {
		t0 := now()
		r.late.record(t0 - a.due)
		binary.LittleEndian.PutUint64(buf[:], a.seq|payloadTag(r.seed, a.seq)<<seqBits)
		var o jobd.SubmitOptions
		if a.high {
			o.Priority = jobd.PriorityHigh
		}
		id, err := c.Submit(tenant(conn), "noop", 1, buf[:], o)
		t := now()
		if err != nil {
			failed.Add(1)
			var se *jobd.ServerError
			switch {
			case jobd.IsCapacity(err):
				r.oracle.refuse("capacity", 1)
			case jobd.IsQuota(err):
				r.oracle.refuse("quota", 1)
			case errors.As(err, &se):
				r.oracle.refuse("other", 1)
			default:
				r.oracle.refuse("transport", 1)
			}
			continue
		}
		r.onAck(id, a, t)
	}
}

// runOpen measures one phase of jobd or jobd-durable.
func runOpen(w string, seed uint64, seconds, rate float64, traced bool, workDir string, or *oracle, spans *spanLog) (*phase, error) {
	r := newOpenRun(seed, traced, or, spans)
	t0 := now()
	env, err := setupOpen(w, workDir, traced, r)
	if err != nil {
		return nil, err
	}
	setup := float64(now()-t0) / 1e9
	defer env.close()
	if traced {
		regs.zero()
	}
	reg := env.srv.Registry()
	c0, d0 := counters(), dispatcherCounters(reg)
	m := startMeter(&r.nEvents)
	start := now()
	end := start + int64(seconds*1e9)
	r.ack, r.done = newSliced(start, seconds), newSliced(start, seconds)

	var failed atomic.Uint64
	qs := make([]chan arrival, openConns)
	var wg sync.WaitGroup
	for i := range qs {
		qs[i] = make(chan arrival, openQueue)
		for k := 0; k < openWorkers; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.submitter(env.clients[i], i, qs[i], &failed)
			}()
		}
	}
	attempted := generate(seed, rate, start, end, qs)
	sent := now()
	wg.Wait()
	deadline := time.Now().Add(drainTimeout)
	for r.nEvents.Load() < r.nAccepted.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	_, cpuUs, allocs := m.end()
	c1, d1 := counters(), dispatcherCounters(reg)

	accepted, events := r.nAccepted.Load(), r.nEvents.Load()
	if missing := accepted - min(events, accepted); missing > 0 {
		or.refuse("missing_event", missing)
		or.add("%d accepted jobs had no completion event after %s", missing, drainTimeout)
		failed.Add(missing)
	}
	if n := r.nExec.Load(); n != accepted {
		or.add("%d payloads executed for %d accepted jobs", n, accepted)
	}
	st, err := env.clients[0].Stats()
	if err != nil {
		return nil, fmt.Errorf("%s stats: %w", w, err)
	}
	if st.Jobs.Duplicates != 0 {
		or.add("server reports %d duplicates", st.Jobs.Duplicates)
	}
	if or.refusals["transport"] == 0 && st.Admitted != accepted {
		or.add("server admitted %d jobs, clients were acked %d", st.Admitted, accepted)
	}
	completed := min(events, accepted)
	if completed == 0 {
		return nil, fmt.Errorf("%s: no job completed", w)
	}

	p := &phase{
		attempted: attempted,
		failed:    failed.Load(),
		completed: completed,
		setup:     setup,
		m:         map[string]sample{},
		ops:       opDeltas(c0, c1),
	}
	// The window runs until the generator has sent its last arrival,
	// or to the last event when completions trail it.
	win := float64(max(sent, r.lastEvent.Load())-start) / 1e9
	p.m["jobs_per_s"] = sample{float64(completed) / win, completed}
	p.m["done_p50_us"] = r.done.at(0.50, 1e3)
	p.m["done_p99_us"] = r.done.at(0.99, 1e3)
	p.m["ack_p50_us"] = r.ack.at(0.50, 1e3)
	p.m["ack_p99_us"] = r.ack.at(0.99, 1e3)
	p.m["cpu_us_per_job"], p.m["allocs_per_job"] = cpuUs, allocs
	if !traced {
		return p, nil
	}

	perf := uint64(d1.performed - d0.performed)
	rounds := uint64(d1.rounds - d0.rounds)
	p.m["core.residue_per_kjob"] = ratio(1000*uint64(d1.residue-d0.residue), perf)
	p.m["conc.jobs_per_round"] = ratio(perf, rounds)
	round := d1.round
	round.sub(d0.round)
	p.m["conc.perfect_round_ratio"] = ratio(d1.perfect-d0.perfect, rounds)
	p.m["conc.round_p50_us"] = sample{float64(round.Quantile(0.50)) / 1e3, round.Count}
	p.m["conc.round_p99_us"] = sample{float64(round.Quantile(0.99)) / 1e3, round.Count}
	p.m["jobd.to_start_p50_us"] = r.toStart.at(0.50, 1e3)
	p.m["jobd.to_start_p99_us"] = r.toStart.at(0.99, 1e3)
	p.m["jobd.to_event_p50_us"] = r.toEvent.at(0.50, 1e3)
	p.m["jobd.to_event_p99_us"] = r.toEvent.at(0.99, 1e3)
	bytes := delta(c0, c1, "amo_jobd_server_bytes_received_total") + delta(c0, c1, "amo_jobd_server_bytes_sent_total")
	p.m["jobd.bytes_per_job"] = sample{bytes / float64(completed), completed}
	p.m["jobd.events_dropped"] = sample{delta(c0, c1, "amo_jobd_events_dropped_total"), completed}
	p.m["loadgen.late_p99_us"] = r.late.at(0.99, 1e3)
	p.regLayer(regs.counts(), completed, accepted)
	return p, nil
}

// dispatcherCounts are the job server's dispatcher counters, read
// from its registry.
type dispatcherCounts struct {
	performed, rounds, residue float64
	perfect                    uint64
	round                      histDelta
}

func dispatcherCounters(reg *obs.Registry) dispatcherCounts {
	snap := reg.Snapshot()
	var d dispatcherCounts
	for k, v := range snap {
		switch family(k) {
		case "amo_dispatcher_performed_jobs_total":
			d.performed += num(v)
		case "amo_dispatcher_rounds_total":
			d.rounds += num(v)
		case "amo_dispatcher_residue_jobs_total":
			d.residue += num(v)
		}
	}
	if h, ok := reg.HistogramSnapshot("amo_dispatcher_round_duration_seconds"); ok {
		d.round = histDelta{h}
	}
	if h, ok := reg.HistogramSnapshot("amo_dispatcher_round_loss_ppm"); ok {
		d.perfect = h.Buckets[0]
	}
	return d
}
