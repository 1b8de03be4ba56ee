package sim

import (
	"encoding/json"
	"io"
)

// WriteJSON serializes v as indented JSON to w. Every experiment result
// in this package (Table1Result, Figure7Result, ...) and every machine
// Result serializes cleanly — stats.Counter marshals as its bare count —
// so harness outputs can feed plotting or regression tooling directly.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
