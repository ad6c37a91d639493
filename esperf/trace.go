package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Parent is the span that caused it (0: none); every span of
// one run shares Run.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Run    string `json:"run"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	run   string
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// do times fn as a span named name under parent.
func (t *tracer) do(name string, parent int64, fn func(id int64) error) error {
	if t == nil {
		return fn(0)
	}
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Run: t.run})
	t.mu.Unlock()
	start := time.Since(t.t0)
	err := fn(id)
	end := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].Start, t.spans[id-1].End = int64(start), int64(end)
	t.mu.Unlock()
	return err
}

// selfTime sums, per span name, each span's duration minus the part of
// it its direct children cover.
func (t *tracer) selfTime() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return out
}

// total sums the durations of every span named name.
func (t *tracer) total(name string) (time.Duration, int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var d int64
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
			n++
		}
	}
	return time.Duration(d), n
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// allocs measures fn's heap allocations (count and bytes). It is only
// meaningful while nothing else allocates, so layer replays run it on
// the calling goroutine with the model idle.
func allocs(fn func() error) (n, bytes uint64, err error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err = fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc, err
}
