package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"htlvideo/internal/obs"
)

// span is one recorded interval: the harness' own span around a client
// request or a direct layer call, or a program span harvested from the trace
// the program returned (?trace=1, htlvideo.WithTrace) and placed under it.
// Spans of one request share Req; Parent 0 marks the request's root.
type span struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent"`
	Req    int               `json:"req"`
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"` // since the tracer's epoch
	End    int64             `json:"end_ns"`
	Tags   map[string]string `json:"tags,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// retainedRequests bounds how many requests keep their full span tree for
// the trace file; self times are aggregated over every request.
const retainedRequests = 64

// layers orders the program's layers from the outside in. A program span
// named "attempt" hands over to the next layer down: the coordinator's
// attempt holds the shard server's spans, the server's attempt the store's.
var layers = []string{"shard", "server", "store"}

// tracer keeps the spans of a traced phase in memory and aggregates, per
// qualified span name, the self time each request spent there.
type tracer struct {
	epoch time.Time

	mu       sync.Mutex
	requests int // client queries; adds are counted apart
	adds     int
	retained [][]span
	selfNS   map[string]int64 // qualified name → Σ self time
	// Samples derived from coordinator traces.
	rttMS             []float64 // per attempt: its span − the shard server's spans it holds
	slowestOverMedian []float64 // per request: slowest shard span ÷ median shard span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), selfNS: map[string]int64{}}
}

// root is the harness' own span around one operation.
func (t *tracer) root(req int, name string, start, end time.Time) span {
	return span{ID: 1, Req: req, Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
}

// add records the harness' span around one Store.Add. An add is not a
// request: the self times are per query, whatever the add rate.
func (t *tracer) add(req int, start, end time.Time) {
	spans := []span{t.root(req, "client.add", start, end)}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.adds++
	t.selfNS[spans[0].Name] += spans[0].dur()
	if len(t.retained) < retainedRequests {
		t.retained = append(t.retained, spans)
	}
}

// request records one client query: the harness' span plus, when the program
// returned its own span tree, that tree placed beneath it.
func (t *tracer) request(req int, name, topLayer string, start, end time.Time, prog *obs.TraceSnapshot) {
	root := t.root(req, name, start, end)
	f := flattener{req: req, spans: []span{root}}
	if prog != nil && len(prog.Spans) > 0 {
		layer := 0
		for i, l := range layers {
			if l == topLayer {
				layer = i
			}
		}
		// The program's trace covers prog.Duration of the client's interval;
		// which part is unknown, so centre it.
		origin := root.Start + max(0, (root.dur()-int64(prog.Duration))/2)
		f.add(prog.Spans, 1, origin, layer)
	}
	spans := f.spans
	self := selfTimes(spans)

	t.mu.Lock()
	defer t.mu.Unlock()
	t.requests++
	for i, s := range spans {
		t.selfNS[s.Name] += self[i]
	}
	if len(t.retained) < retainedRequests {
		t.retained = append(t.retained, spans)
	}
	for _, ns := range f.rttNS {
		t.rttMS = append(t.rttMS, float64(ns)/float64(time.Millisecond))
	}
	if ratio, ok := slowestOverMedian(spans); ok {
		t.slowestOverMedian = append(t.slowestOverMedian, ratio)
	}
}

// flattener converts the span trees a program returned into spans on the
// tracer's clock.
type flattener struct {
	req   int
	spans []span
	// rttNS collects, per coordinator attempt that holds a shard server's
	// spans, the part of the attempt those spans do not cover.
	rttNS []int64
}

// add appends the snapshot trees under parent. Offsets are relative to the
// start of the trace the spans were recorded in; origin is that start on the
// tracer's clock. Children of an "attempt" span were recorded by the next
// layer down in a trace of its own, so they get a fresh origin: centred in
// the attempt.
func (f *flattener) add(snaps []obs.SpanSnapshot, parent int, origin int64, layer int) {
	for _, sn := range snaps {
		name := sn.Name
		if strings.HasPrefix(name, "shard ") {
			name = "shard"
		}
		s := span{
			ID: len(f.spans) + 1, Parent: parent, Req: f.req,
			Name:  layers[layer] + "." + name,
			Start: origin + int64(sn.Offset),
			End:   origin + int64(sn.Offset+sn.Duration),
			Tags:  sn.Tags,
		}
		f.spans = append(f.spans, s)
		childOrigin, childLayer := origin, layer
		if sn.Name == "attempt" && len(sn.Children) > 0 {
			childLayer = min(layer+1, len(layers)-1)
			var extent int64
			for _, c := range sn.Children {
				extent = max(extent, int64(c.Offset+c.Duration))
			}
			childOrigin = s.Start + max(0, (s.dur()-extent)/2)
			if layers[layer] == "shard" {
				f.rttNS = append(f.rttNS, s.dur()-extent)
			}
		}
		f.add(sn.Children, s.ID, childOrigin, childLayer)
	}
}

// selfTimes returns, per span, its duration minus the union of the intervals
// its children cover (children run in parallel, so their sum would overcount).
func selfTimes(spans []span) []int64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - unionWithin(children[s.ID], s.Start, s.End)
	}
	return out
}

// unionWithin is the length of the union of the intervals, clipped to
// [lo, hi].
func unionWithin(ivs [][2]int64, lo, hi int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		b, e := max(iv[0], lo), min(iv[1], hi)
		if e > b {
			clipped = append(clipped, [2]int64{b, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv[1] <= end {
			continue
		}
		total += iv[1] - max(iv[0], end)
		end = iv[1]
	}
	return total
}

// slowestOverMedian is, for one coordinator request, the slowest shard span
// over the median one: how much the slowest of the parallel parts set the
// response's time.
func slowestOverMedian(spans []span) (float64, bool) {
	var durs []float64
	for _, s := range spans {
		if s.Name == "shard.shard" {
			durs = append(durs, float64(s.dur()))
		}
	}
	if len(durs) < 2 {
		return 0, false
	}
	sort.Float64s(durs)
	med := median(durs)
	if med <= 0 {
		return 0, false
	}
	return durs[len(durs)-1] / med, true
}

// selfMS is the mean self time per client query, in ms, of the named spans.
func (t *tracer) selfMS(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.requests == 0 {
		return 0
	}
	return float64(t.selfNS[name]) / float64(t.requests) / float64(time.Millisecond)
}

// write saves the retained span trees as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := struct {
		Requests int      `json:"requests_traced"`
		Adds     int      `json:"adds_traced"`
		Retained int      `json:"requests_retained"`
		Spans    [][]span `json:"requests"`
	}{t.requests, t.adds, len(t.retained), t.retained}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
