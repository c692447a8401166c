package spans

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"morrigan/internal/atomicfile"
)

// WriteJSONL emits one span per line as JSON, in the order given.
func WriteJSONL(w io.Writer, ss []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range ss {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses spans written by WriteJSONL.
func ReadJSONL(r io.Reader) ([]Span, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<24)
	var out []Span
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var s Span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			return nil, fmt.Errorf("spans: malformed JSONL line %d: %w", len(out)+1, err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// chromeEvent is one entry of the Chrome trace-event format ("JSON Object
// Format"), loadable in Perfetto and chrome://tracing. Timestamps are
// microseconds; "X" is a complete event, "M" is metadata (process/thread
// names).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace emits the spans as a Chrome trace-event JSON document.
// Each worker becomes a process (pid) named after it, each trace id becomes
// a thread (tid) within its worker, and each span an "X" complete event
// carrying its attributes plus the full trace id in args. The mapping is
// deterministic for a given span set: pids by sorted worker name, tids by
// sorted trace id.
func WriteChromeTrace(w io.Writer, ss []Span) error {
	workers := map[string]int{}
	traces := map[string]int{}
	var workerNames, traceIDs []string
	for _, s := range ss {
		if _, ok := workers[s.Worker]; !ok {
			workers[s.Worker] = 0
			workerNames = append(workerNames, s.Worker)
		}
		if _, ok := traces[s.TraceID]; !ok {
			traces[s.TraceID] = 0
			traceIDs = append(traceIDs, s.TraceID)
		}
	}
	sort.Strings(workerNames)
	sort.Strings(traceIDs)
	for i, n := range workerNames {
		workers[n] = i + 1
	}
	for i, id := range traceIDs {
		traces[id] = i + 1
	}

	var ev []chromeEvent
	for _, n := range workerNames {
		name := n
		if name == "" {
			name = "(local)"
		}
		ev = append(ev, chromeEvent{
			Name: "process_name", Ph: "M", PID: workers[n],
			Args: map[string]string{"name": name},
		})
	}
	// Thread-name metadata is emitted per (worker, trace) pair actually
	// present, labelled with a readable prefix of the trace id.
	seen := map[[2]int]bool{}
	for _, s := range ss {
		pt := [2]int{workers[s.Worker], traces[s.TraceID]}
		if seen[pt] {
			continue
		}
		seen[pt] = true
		label := s.TraceID
		if len(label) > 12 {
			label = label[:12]
		}
		ev = append(ev, chromeEvent{
			Name: "thread_name", Ph: "M", PID: pt[0], TID: pt[1],
			Args: map[string]string{"name": "job " + label},
		})
	}
	for _, s := range ss {
		args := map[string]string{"trace_id": s.TraceID}
		for k, v := range s.Attrs {
			args[k] = v
		}
		ev = append(ev, chromeEvent{
			Name: s.Name,
			Cat:  category(s.Name),
			Ph:   "X",
			TS:   float64(s.StartNS) / 1e3,
			Dur:  float64(s.DurNS) / 1e3,
			PID:  workers[s.Worker],
			TID:  traces[s.TraceID],
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: ev, DisplayTimeUnit: "ms"})
}

// category is the span name's leading dot-scope ("lookup.store" → "lookup"),
// used as the Chrome event category so Perfetto can filter by phase family.
func category(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// WriteFile writes the spans to path, choosing the format by extension:
// ".jsonl" gets one span per line, anything else the Chrome trace-event JSON
// document. The write is atomic (see internal/atomicfile) so a crash
// mid-export never leaves a truncated trace.
func WriteFile(path string, ss []Span) error {
	return atomicfile.Write(path, func(f *os.File) error {
		if strings.EqualFold(filepath.Ext(path), ".jsonl") {
			return WriteJSONL(f, ss)
		}
		return WriteChromeTrace(f, ss)
	})
}
