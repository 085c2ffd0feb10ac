package main

import (
	"fmt"
	"strings"
	"sync/atomic"

	"atmostonce/internal/membackend"
	"atmostonce/internal/shmem"
)

// The timing wrapper: a membackend kind, "perftrace:TAG@SPEC", that
// opens SPEC and times or counts every call made on it. The traced run
// passes the dispatcher or job server a perftrace spec in place of the
// real one, so the program opens its register files through the
// wrapper without a line of it changing. TAG accumulates the instance
// suffixes the program appends (".shard0", ".desclog"), which tells the
// wrapper which register file it sits on even for kinds, like atomic,
// whose specs take no suffix.
//
// The program discovers optional capabilities by type assertion, so the
// wrapper must offer exactly the capabilities of the backend it wraps:
// one more (or one fewer) and the program takes a different path in the
// traced run than in the untraced one. openTraced refuses any backend
// whose capability set it cannot mirror.

const traceKind = "perftrace"

func tracedSpec(spec string) string {
	if spec == "" {
		spec = "atomic"
	}
	return traceKind + ":@" + spec
}

func init() {
	membackend.Register(traceKind, openTraced)
	membackend.RegisterSuffixer(traceKind, func(arg, suffix string) string {
		tag, inner, _ := strings.Cut(arg, "@")
		return tag + suffix + "@" + membackend.WithSuffix(inner, suffix)
	})
}

// Register operations, by capability.
const (
	rRead = iota
	rWrite
	rAcked
	rJournal
	rBatchAcked
	rBatchJournal
	rRange
	rFill
	rCAS
	rTAS
	rSync
	rOps
)

var rNames = [rOps]string{"read", "write", "acked", "journal", "batch_acked", "batch_journal", "range", "fill", "cas", "tas", "sync"}

// Register files the program opens.
const (
	fileShard = iota
	fileDesclog
	rFiles
)

// regFile accumulates one register file's calls: how many, how many
// cells they carried, and (for timed calls) their latency.
type regFile struct {
	calls [rOps]atomic.Uint64
	cells [rOps]atomic.Uint64
	lat   [rOps]hist
}

// regStats is the wrapper's collector, shared by every wrapped backend.
type regStats struct {
	files [rFiles]regFile
	spans *spanLog
}

var regs *regStats

// zero clears the collector when the measured window opens.
func (s *regStats) zero() {
	for f := range s.files {
		rf := &s.files[f]
		for op := range rf.calls {
			rf.calls[op].Store(0)
			rf.cells[op].Store(0)
			rf.lat[op].n.Store(0)
			for i := range rf.lat[op].b {
				rf.lat[op].b[i].Store(0)
			}
		}
	}
}

// regCounts are the wrapper's call counts that are reported per job.
type regCounts struct {
	acked        uint64 // acked and journal writes, single or batched, on every file
	desclogCells uint64 // cells written to the descriptor log
}

func (s *regStats) counts() regCounts {
	var c regCounts
	for f := range s.files {
		for _, op := range []int{rAcked, rJournal, rBatchAcked, rBatchJournal} {
			c.acked += s.files[f].calls[op].Load()
		}
	}
	dl := &s.files[fileDesclog]
	for _, op := range []int{rWrite, rAcked, rBatchAcked} {
		c.desclogCells += dl.cells[op].Load()
	}
	return c
}

type tbase struct {
	in     membackend.Backend
	f      *regFile
	file   int
	timeRW bool // plain reads and writes are RPCs worth timing (net:)
}

func (t *tbase) count(op, cells int) {
	t.f.calls[op].Add(1)
	t.f.cells[op].Add(uint64(cells))
}

// timed records a call that started at t0.
func (t *tbase) timed(op, cells int, id uint64, t0 int64) {
	t1 := now()
	t.count(op, cells)
	t.f.lat[op].record(t1 - t0)
	regs.spans.reg(t.file, op, id, t0, t1)
}

// spanOnly reports whether a call that no metric counts or times should
// still be timed: only while its span can be kept. Past that it passes
// straight through, so the wrapper costs only what its metrics need.
func spanOnly() bool { return regs.spans.nCalls.Load() < spanCap }

// Read and Write on in-process registers are the round core's plain
// loads and stores, dozens per job: they pass straight through, but for
// the descriptor log's cells, which jobd.desclog_cells_per_job counts.
// On net: each is an RPC, and reads are timed for netmem.read_*.

func (t *tbase) Read(addr int) int64 {
	if !t.timeRW {
		return t.in.Read(addr)
	}
	t0 := now()
	v := t.in.Read(addr)
	t.timed(rRead, 1, 0, t0)
	return v
}

func (t *tbase) Write(addr int, v int64) {
	if !t.timeRW || !spanOnly() {
		if t.file == fileDesclog {
			t.count(rWrite, 1)
		}
		t.in.Write(addr, v)
		return
	}
	t0 := now()
	t.in.Write(addr, v)
	t.timed(rWrite, 1, 0, t0)
}

func (t *tbase) Size() int { return t.in.Size() }

func (t *tbase) Sync() error {
	if !spanOnly() {
		return t.in.Sync()
	}
	t0 := now()
	err := t.in.Sync()
	t.timed(rSync, 0, 0, t0)
	return err
}

func (t *tbase) Close() error { return t.in.Close() }

type tAcked struct{ *tbase }

func (t tAcked) WriteAcked(addr int, v int64) error {
	t0 := now()
	err := t.in.(membackend.AckedWriter).WriteAcked(addr, v)
	t.timed(rAcked, 1, 0, t0)
	return err
}

type tJournal struct{ *tbase }

func (t tJournal) JournalWrite(addr int, id uint64) error {
	t0 := now()
	err := t.in.(membackend.JournalWriter).JournalWrite(addr, id)
	t.timed(rJournal, 1, id, t0)
	return err
}

type tBatchAcked struct{ *tbase }

func (t tBatchAcked) WriteAckedBatch(addr int, vals []int64) error {
	t0 := now()
	err := t.in.(membackend.BatchAckedWriter).WriteAckedBatch(addr, vals)
	t.timed(rBatchAcked, len(vals), 0, t0)
	return err
}

type tBatchJournal struct{ *tbase }

func (t tBatchJournal) JournalWriteBatch(addr int, ids []uint64) error {
	t0 := now()
	err := t.in.(membackend.BatchJournalWriter).JournalWriteBatch(addr, ids)
	var first uint64
	if len(ids) > 0 {
		first = ids[0]
	}
	t.timed(rBatchJournal, len(ids), first, t0)
	return err
}

type tRange struct{ *tbase }

func (t tRange) ReadRange(addr int, dst []int64) error {
	if !spanOnly() {
		return t.in.(membackend.RangeReader).ReadRange(addr, dst)
	}
	t0 := now()
	err := t.in.(membackend.RangeReader).ReadRange(addr, dst)
	t.timed(rRange, len(dst), 0, t0)
	return err
}

type tFill struct{ *tbase }

func (t tFill) Fill(addr, n int, v int64) error {
	if !spanOnly() {
		return t.in.(membackend.Filler).Fill(addr, n, v)
	}
	t0 := now()
	err := t.in.(membackend.Filler).Fill(addr, n, v)
	t.timed(rFill, n, 0, t0)
	return err
}

type tSwap struct{ *tbase }

func (t tSwap) CompareAndSwap(addr int, old, new int64) bool {
	if !spanOnly() {
		return t.in.(membackend.Swapper).CompareAndSwap(addr, old, new)
	}
	t0 := now()
	ok := t.in.(membackend.Swapper).CompareAndSwap(addr, old, new)
	t.timed(rCAS, 1, 0, t0)
	return ok
}

type tTAS struct{ *tbase }

func (t tTAS) TestAndSet(addr int) int64 {
	if !spanOnly() {
		return t.in.(shmem.TAS).TestAndSet(addr)
	}
	t0 := now()
	v := t.in.(shmem.TAS).TestAndSet(addr)
	t.timed(rTAS, 1, 0, t0)
	return v
}

type tReopen struct{ *tbase }

func (t tReopen) Reopened() bool { return t.in.(membackend.Reopener).Reopened() }

// The capability sets of the backends the workloads run on, each with
// the wrapper type that mirrors it.
type (
	wAtomic struct {
		*tbase
		tBatchAcked
		tBatchJournal
		tSwap
		tTAS
	}
	wMmap struct {
		*tbase
		tAcked
		tJournal
		tBatchAcked
		tBatchJournal
		tSwap
		tReopen
	}
	wNet struct {
		*tbase
		tAcked
		tJournal
		tBatchJournal
		tRange
		tFill
		tSwap
		tReopen
	}
)

// caps returns the optional-capability set of a backend as a bitmask.
func caps(b any) uint {
	var m uint
	for i, ok := range []bool{
		is[membackend.Reopener](b), is[membackend.AckedWriter](b), is[membackend.JournalWriter](b),
		is[membackend.BatchAckedWriter](b), is[membackend.BatchJournalWriter](b), is[membackend.RangeReader](b),
		is[membackend.Filler](b), is[membackend.Swapper](b), is[shmem.TAS](b),
	} {
		if ok {
			m |= 1 << i
		}
	}
	return m
}

func is[T any](b any) bool {
	_, ok := b.(T)
	return ok
}

func openTraced(arg string, size int) (membackend.Backend, error) {
	tag, spec, _ := strings.Cut(arg, "@")
	if regs == nil {
		return nil, fmt.Errorf("perftrace: %q opened outside a traced run", spec)
	}
	in, err := membackend.Open(spec, size)
	if err != nil {
		return nil, err
	}
	file := fileShard
	if strings.HasSuffix(tag, ".desclog") {
		file = fileDesclog
	}
	b := &tbase{in: in, f: &regs.files[file], file: file, timeRW: strings.HasPrefix(spec, "net:")}
	want := caps(in)
	for _, w := range []membackend.Backend{
		wAtomic{b, tBatchAcked{b}, tBatchJournal{b}, tSwap{b}, tTAS{b}},
		wMmap{b, tAcked{b}, tJournal{b}, tBatchAcked{b}, tBatchJournal{b}, tSwap{b}, tReopen{b}},
		wNet{b, tAcked{b}, tJournal{b}, tBatchJournal{b}, tRange{b}, tFill{b}, tSwap{b}, tReopen{b}},
	} {
		if caps(w) == want {
			return w, nil
		}
	}
	in.Close()
	return nil, fmt.Errorf("perftrace: no wrapper mirrors the capabilities (%#x) of %q", want, spec)
}
