package exp

import (
	"fmt"
	"io"

	dragonfly "repro"
)

// Record is the JSONL line emitted per finished point. Lines stream in
// completion order (Index recovers campaign order) and each line is
// self-contained — config included — so a .jsonl file fully describes a
// campaign and can be filtered, resumed from, or re-plotted on its own.
// Under Options.CanonicalJSONL lines are instead emitted in campaign
// order with Cached and Seconds zeroed, making the whole stream a
// deterministic function of the campaign (see that option's doc).
type Record struct {
	Index   int               `json:"index"`
	Series  string            `json:"series"`
	X       float64           `json:"x"`
	Cached  bool              `json:"cached,omitempty"`
	Seconds float64           `json:"seconds"`
	Error   string            `json:"error,omitempty"`
	Config  dragonfly.Config  `json:"config"`
	Result  *dragonfly.Result `json:"result,omitempty"`
}

// NewRecord builds the record of an outcome — the one place a Record is
// assembled, for JSONL lines and for the service's SSE events and
// results listing alike. Canonical records drop the two volatile fields
// — Seconds (wall time) and Cached (a property of the store, not the
// experiment) — so the line depends only on the point and its
// deterministic result. The record's Result points into o.
func NewRecord(o *Outcome, canonical bool) Record {
	rec := Record{
		Index:  o.Index,
		Series: o.Point.Series,
		X:      o.Point.X,
		Config: o.Point.Config,
	}
	if !canonical {
		rec.Cached = o.Cached
		rec.Seconds = o.Seconds
	}
	if o.Err != nil {
		rec.Error = o.Err.Error()
	} else {
		rec.Result = &o.Result
	}
	return rec
}

// writeRecord emits one outcome as a JSON line, in one Write from a
// pooled buffer.
func writeRecord(w io.Writer, o *Outcome, canonical bool) error {
	c := getCodec()
	defer c.release()
	rec := NewRecord(o, canonical)
	if err := c.enc.Encode(&rec); err != nil {
		return fmt.Errorf("exp: encode jsonl record: %w", err)
	}
	if _, err := w.Write(c.buf.Bytes()); err != nil {
		return fmt.Errorf("exp: write jsonl record: %w", err)
	}
	return nil
}

// WriteCanonicalRecord emits one outcome as a canonical JSON line — the
// same bytes Options.CanonicalJSONL would emit for it. Remote clients
// use it to reproduce a local campaign's JSONL stream byte for byte.
func WriteCanonicalRecord(w io.Writer, o *Outcome) error {
	return writeRecord(w, o, true)
}
