package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval of the traced run: a call (or a batch of
// calls) from the benchmark into one layer of the simulator.
type span struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"` // index of the enclosing span, -1 at top level
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Calls  int     `json:"calls"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how untraced passes run.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.t0).Seconds()})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, recording how many calls it covered.
func (t *tracer) end(id, calls int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.t0).Seconds()
	t.spans[id].Calls = calls
	t.open = t.open[:len(t.open)-1]
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// summary prints, per span name, the span count, total and self time
// (duration less the part its child spans cover) and calls.
func (t *tracer) summary(w io.Writer) {
	type agg struct {
		n            int
		total, child float64
		calls        int
	}
	by := map[string]*agg{}
	for _, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		a.total += s.End - s.Start
		a.calls += s.Calls
		if s.Parent >= 0 {
			by[t.spans[s.Parent].Name].child += s.End - s.Start
		}
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-28s %6s %10s %10s %12s\n", "span", "count", "total_s", "self_s", "calls")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "%-28s %6d %10.4f %10.4f %12d\n", n, a.n, a.total, a.total-a.child, a.calls)
	}
}
