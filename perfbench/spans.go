package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share a
// trace id; parent is the span that caused this one (0 for a root).
//
// Two clocks appear in one file: "live" spans are offsets from the start of
// the traced load phase, "replay" spans offsets from the start of the
// replay. Durations are comparable across both; instants are not.
type span struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent,omitempty"`
	Trace  int64              `json:"trace"`
	Name   string             `json:"name"`
	Clock  string             `json:"clock"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// recorder keeps spans in memory until write.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a live span given as offsets from the traced phase start and
// returns its id.
func (r *recorder) add(trace, parent int64, name string, start, end time.Duration) int64 {
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Clock: "live",
		Start: int64(start), End: int64(end)})
	return id
}

// addAt records a replay span between two instants.
func (r *recorder) addAt(trace, parent int64, name string, start, end time.Time) int64 {
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Clock: "replay",
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
	return id
}

// attr attaches a count to span id.
func (r *recorder) attr(id int64, key string, v float64) {
	s := &r.spans[id-1]
	if s.Attrs == nil {
		s.Attrs = map[string]float64{}
	}
	s.Attrs[key] = v
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
