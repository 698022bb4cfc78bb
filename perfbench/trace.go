package main

import (
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans of one operation
// share op; parent indexes the enclosing span in the trace, -1 for a root.
type span struct {
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// spanLog keeps every span of a traced run in memory. A nil *spanLog
// records nothing, which is how untraced windows run.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// spanBuf is one goroutine's private spans, merged into the log by flush.
type spanBuf struct {
	log   *spanLog
	spans []span
}

func (l *spanLog) buffer() *spanBuf {
	if l == nil {
		return nil
	}
	return &spanBuf{log: l}
}

// begin opens a span and returns its index within the buffer.
func (b *spanBuf) begin(op uint64, name string, parent int) int {
	if b == nil {
		return -1
	}
	b.spans = append(b.spans, span{Op: op, Name: name, Start: time.Since(b.log.epoch).Nanoseconds(), Parent: parent})
	return len(b.spans) - 1
}

// end closes span i.
func (b *spanBuf) end(i int) {
	if b == nil {
		return
	}
	b.spans[i].End = time.Since(b.log.epoch).Nanoseconds()
}

// flush appends the buffer's spans to the log, rebasing parent indexes.
func (b *spanBuf) flush() {
	if b == nil {
		return
	}
	b.log.mu.Lock()
	base := len(b.log.spans)
	for _, s := range b.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		b.log.spans = append(b.log.spans, s)
	}
	b.log.mu.Unlock()
	b.spans = nil
}
