package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ivnt/internal/engine"
	"ivnt/internal/relation"
)

// span is one timed call into a layer. Spans of one journey or one
// request share a trace id; parent links a span to the call that caused
// it (0 for a root).
type span struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent"`
	Trace  int               `json:"trace"`
	Name   string            `json:"name"`
	Start  time.Duration     `json:"start_ns"`
	End    time.Duration     `json:"end_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
	rec    *recorder
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// finish stamps the span's end.
func (s *span) finish() { s.End = time.Since(s.rec.epoch) }

// recorder keeps spans in memory; write dumps them when the run ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []*span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start opens a span under parent (nil for a new trace).
func (r *recorder) start(name string, parent *span) *span {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &span{ID: len(r.spans) + 1, Name: name, Start: time.Since(r.epoch), rec: r}
	if parent != nil {
		s.Parent, s.Trace = parent.ID, parent.Trace
	} else {
		s.Trace = s.ID
	}
	r.spans = append(r.spans, s)
	return s
}

// children returns the spans whose parent is p.
func (r *recorder) children(p *span) []*span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*span
	for _, s := range r.spans {
		if s.Parent == p.ID {
			out = append(out, s)
		}
	}
	return out
}

// selfTime is p's duration minus the part of it its children cover.
func (r *recorder) selfTime(p *span) time.Duration {
	kids := r.children(p)
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	covered := time.Duration(0)
	curStart, curEnd := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		if k.Start > curEnd {
			covered += curEnd - curStart
			curStart, curEnd = k.Start, k.End
		} else if k.End > curEnd {
			curEnd = k.End
		}
	}
	covered += curEnd - curStart
	return p.dur() - covered
}

// write dumps every span as JSON into dir/spans-<name>.json.
func (r *recorder) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("span dir: %w", err)
	}
	path := filepath.Join(dir, "spans-"+name+".json")
	r.mu.Lock()
	data, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

type spanKey struct{}

func withSpan(ctx context.Context, s *span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

func spanFrom(ctx context.Context) *span {
	s, _ := ctx.Value(spanKey{}).(*span)
	return s
}

// tracedExec wraps an executor so every RunStage becomes a child span of
// the span carried by its context, and sums the stages' statistics.
type tracedExec struct {
	inner engine.Executor
	rec   *recorder

	mu    sync.Mutex
	calls int
	stats engine.Stats
}

func (t *tracedExec) Name() string { return t.inner.Name() }

func (t *tracedExec) RunStage(ctx context.Context, rel *relation.Relation, ops []engine.OpDesc) (*relation.Relation, engine.Stats, error) {
	sp := t.rec.start("engine.RunStage", spanFrom(ctx))
	out, st, err := t.inner.RunStage(ctx, rel, ops)
	sp.finish()
	t.mu.Lock()
	t.calls++
	t.stats.Add(st)
	t.mu.Unlock()
	return out, st, err
}

// take returns and resets the call count and summed statistics.
func (t *tracedExec) take() (int, engine.Stats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	calls, st := t.calls, t.stats
	t.calls, t.stats = 0, engine.Stats{}
	return calls, st
}
