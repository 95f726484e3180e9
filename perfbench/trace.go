package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// traceSpanLimit bounds the spans a traced run keeps in memory (about 48
// bytes each). Spans past the limit are counted but not kept; the
// per-layer metrics do not depend on the kept spans.
const traceSpanLimit = 1 << 18

// span is one call into a layer's public function, timed from the
// benchmark's side of the boundary.
type span struct {
	name   string
	start  int64 // ns since the tracer's epoch
	end    int64
	parent int32 // index of the enclosing span, -1 for a root
	req    int64 // id of the operation (request, compile, restart) it serves
}

// tracer keeps spans in memory and writes them when the run ends.
type tracer struct {
	epoch   time.Time
	spans   []span
	limit   int
	dropped int
}

func newTracer(limit int) *tracer {
	return &tracer{epoch: time.Now(), limit: limit}
}

// open records the start of a span and returns its id, or -1 once the
// tracer is full (or nil).
func (t *tracer) open(name string, parent int32, req int64, start time.Time) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) >= t.limit {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: start.Sub(t.epoch).Nanoseconds(),
		parent: parent, req: req})
	return int32(len(t.spans) - 1)
}

// close records the end of span id.
func (t *tracer) close(id int32, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = end.Sub(t.epoch).Nanoseconds()
}

// record adds a span whose start and end are both known.
func (t *tracer) record(name string, parent int32, req int64, start, end time.Time) int32 {
	id := t.open(name, parent, req, start)
	t.close(id, end)
	return id
}

// total is the number of spans opened, kept or not.
func (t *tracer) total() int { return len(t.spans) + t.dropped }

// selfTimes returns each span name's total self time in ns: its spans'
// durations minus the parts of them their child spans cover.
func (t *tracer) selfTimes() map[string]int64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	self := map[string]int64{}
	for i, s := range t.spans {
		self[s.name] += s.end - s.start - child[i]
	}
	return self
}

// write stores the kept spans as JSON lines in dir/file and prints each
// span name's self time to standard error.
func (t *tracer) write(dir, file string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(struct {
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Parent int32  `json:"parent"`
			Req    int64  `json:"req"`
		}{s.name, s.start, s.end, s.parent, s.req}); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	for name, ns := range t.selfTimes() {
		fmt.Fprintf(os.Stderr, "trace: %-24s self %12.3f ms\n", name, float64(ns)/1e6)
	}
	fmt.Fprintf(os.Stderr, "trace: %d spans kept, %d dropped, written to %s\n",
		len(t.spans), t.dropped, filepath.Join(dir, file))
	return nil
}
