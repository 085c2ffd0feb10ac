package main

import (
	"bufio"
	"fmt"
	"os"
	"sync/atomic"
)

// spanLog keeps a traced run's spans in fixed memory and writes them
// out when the run ends. Job spans are kept for one job in spanEvery
// (by sequence number); register-call spans for the first calls made.
// Each job contributes four spans that tile its submit-to-completion
// time exactly: submit, wait, payload and completion.
type spanLog struct {
	jobs   []jobSpan
	nJobs  atomic.Int64
	calls  []regSpan
	nCalls atomic.Int64
}

const (
	spanEvery = 16
	spanCap   = 1 << 16
)

type jobSpan struct {
	id, seq uint64
	b       [5]int64 // boundaries: submitted, acked, started, finished, completed
}

type regSpan struct {
	file, op int
	id       uint64 // the job a journal write records, 0 otherwise
	t0, t1   int64
}

func newSpanLog() *spanLog {
	return &spanLog{jobs: make([]jobSpan, spanCap), calls: make([]regSpan, spanCap)}
}

func (l *spanLog) job(id, seq uint64, b0, b1, b2, b3, b4 int64) {
	if i := l.nJobs.Add(1) - 1; i < spanCap {
		l.jobs[i] = jobSpan{id, seq, [5]int64{b0, b1, b2, b3, b4}}
	}
}

func (l *spanLog) reg(file, op int, id uint64, t0, t1 int64) {
	if i := l.nCalls.Add(1) - 1; i < spanCap {
		l.calls[i] = regSpan{file, op, id, t0, t1}
	}
}

var jobSpanNames = [4]string{"submit", "wait", "payload", "completion"}
var fileNames = [rFiles]string{"shard", "desclog"}

// write stores the spans as tab-separated lines: job id, sequence
// number (0 for register calls), span name, start and end in
// nanoseconds since process start. Spans of one job share its id.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "job\tseq\tspan\tstart_ns\tend_ns")
	for _, j := range l.jobs[:min(l.nJobs.Load(), spanCap)] {
		for k, name := range jobSpanNames {
			fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", j.id, j.seq, name, j.b[k], j.b[k+1])
		}
	}
	for _, c := range l.calls[:min(l.nCalls.Load(), spanCap)] {
		fmt.Fprintf(w, "%d\t0\treg.%s.%s\t%d\t%d\n", c.id, fileNames[c.file], rNames[c.op], c.t0, c.t1)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
