package obs

import (
	"encoding/json"
	"io"
)

// ChromeEvent is one record of the Chrome trace-event format, in the
// subset https://ui.perfetto.dev renders: "X" complete spans and "M"
// metadata (process and thread names). TS and Dur are microseconds.
// Both of the repository's Chrome exporters, WriteSpanChrome and
// ptrace.WriteChromeTrace, build these and hand them to WriteChrome.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChrome writes events as one Chrome trace-event JSON document
// followed by a newline. Args keys are written sorted, so equal events
// give equal bytes.
func WriteChrome(w io.Writer, events []ChromeEvent) error {
	return json.NewEncoder(w).Encode(struct {
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		TraceEvents     []ChromeEvent `json:"traceEvents"`
	}{"ms", events})
}
