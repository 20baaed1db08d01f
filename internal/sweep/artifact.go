package sweep

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// CellResult is one grid point's row: its identifying parameter values
// (Artifact.Params order) and its metrics (Artifact.Metrics order).
type CellResult struct {
	Params []string  `json:"params"`
	Values []float64 `json:"values"`
}

// Artifact is one sweep's combined output: every cell's metrics in grid
// order, self-describing via the column name lists. The CSV and JSON
// renderings round-trip through Load, and both are deterministic.
type Artifact struct {
	Params  []string     `json:"params"`
	Metrics []string     `json:"metrics"`
	Cells   []CellResult `json:"cells"`
}

// key is the cell's identity across artifacts: its parameter values
// joined. Two sweeps of the same grid shape produce matching keys even
// if the metric set evolved between them.
func (c CellResult) key() string { return strings.Join(c.Params, " ") }

// WriteCSV renders the artifact as one tidy table: parameter columns
// first, then metric columns, one row per cell. Floats use the shortest
// round-trippable form, so the output is deterministic and loses no
// precision.
func (a *Artifact) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	if err := cw.Write(append(append([]string{}, a.Params...), a.Metrics...)); err != nil {
		return fmt.Errorf("sweep: write csv: %w", err)
	}
	rec := make([]string, 0, len(a.Params)+len(a.Metrics))
	for _, c := range a.Cells {
		rec = append(rec[:0], c.Params...)
		for _, v := range c.Values {
			rec = append(rec, strconv.FormatFloat(v, 'g', -1, 64))
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("sweep: write csv: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("sweep: write csv: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("sweep: write csv: %w", err)
	}
	return nil
}

// WriteJSON renders the artifact as one JSON document, deterministic
// like the CSV form.
func (a *Artifact) WriteJSON(w io.Writer) error {
	if err := json.NewEncoder(w).Encode(a); err != nil {
		return fmt.Errorf("sweep: write json: %w", err)
	}
	return nil
}

// Load reads an artifact back from either rendering, sniffing the
// format from the first byte ('{' = JSON, else CSV). CSV columns are
// split into parameters and metrics by name: the leading run of
// ParamColumns names is the identity, everything after is numeric.
func Load(r io.Reader) (*Artifact, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("sweep: load: %w", err)
	}
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("sweep: load: empty artifact")
	}
	if trimmed[0] == '{' {
		var a Artifact
		if err := json.Unmarshal(trimmed, &a); err != nil {
			return nil, fmt.Errorf("sweep: load json: %w", err)
		}
		return &a, nil
	}
	records, err := csv.NewReader(bytes.NewReader(trimmed)).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("sweep: load csv: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("sweep: load csv: no header")
	}
	header := records[0]
	isParam := make(map[string]bool, len(ParamColumns))
	for _, p := range ParamColumns {
		isParam[p] = true
	}
	np := 0
	for np < len(header) && isParam[header[np]] {
		np++
	}
	if np == 0 {
		return nil, fmt.Errorf("sweep: load csv: no parameter columns in header %v", header)
	}
	a := &Artifact{Params: header[:np], Metrics: header[np:]}
	for i, rec := range records[1:] {
		if len(rec) != len(header) {
			return nil, fmt.Errorf("sweep: load csv: row %d has %d fields, header has %d", i+1, len(rec), len(header))
		}
		c := CellResult{Params: rec[:np]}
		for _, s := range rec[np:] {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("sweep: load csv: row %d: %w", i+1, err)
			}
			c.Values = append(c.Values, v)
		}
		a.Cells = append(a.Cells, c)
	}
	return a, nil
}

// metric returns cell c's value for the named metric in a, or false
// when a's metric set does not include it.
func (a *Artifact) metric(c CellResult, name string) (float64, bool) {
	for i, m := range a.Metrics {
		if m == name && i < len(c.Values) {
			return c.Values[i], true
		}
	}
	return 0, false
}

// Delta prints a cell-by-cell, metric-by-metric comparison of two sweep
// artifacts: cells in the new artifact's order first (baseline-only
// cells appended), each metric as baseline -> new with the relative
// change, and one-sided cells or metrics reported as new/gone rather
// than misreported.
func Delta(base, cur *Artifact, w io.Writer) error {
	bw := bufio.NewWriter(w)
	baseBy := make(map[string]CellResult, len(base.Cells))
	for _, c := range base.Cells {
		baseBy[c.key()] = c
	}
	curSeen := make(map[string]bool, len(cur.Cells))
	for _, c := range cur.Cells {
		curSeen[c.key()] = true
	}
	cells := append([]CellResult(nil), cur.Cells...)
	onlyBase := map[string]bool{}
	for _, c := range base.Cells {
		if !curSeen[c.key()] {
			cells = append(cells, c)
			onlyBase[c.key()] = true
		}
	}
	for _, c := range cells {
		if onlyBase[c.key()] {
			fmt.Fprintf(bw, "%-64s gone (was in baseline)\n", c.key())
			continue
		}
		b, hasBase := baseBy[c.key()]
		if !hasBase {
			fmt.Fprintf(bw, "%-64s new cell\n", c.key())
			// Still print its metrics so the new cell is readable.
		}
		// The new artifact's metric order, then baseline-only metrics.
		metrics := append([]string(nil), cur.Metrics...)
		for _, m := range base.Metrics {
			if _, ok := cur.metric(c, m); !ok {
				metrics = append(metrics, m)
			}
		}
		for _, m := range metrics {
			nv, hasN := cur.metric(c, m)
			var ov float64
			hasO := false
			if hasBase {
				ov, hasO = base.metric(b, m)
			}
			label := fmt.Sprintf("%s %s", c.key(), m)
			switch {
			case !hasN && !hasO:
			case !hasN:
				fmt.Fprintf(bw, "  %-72s %12.4g -> gone\n", label, ov)
			case !hasO:
				fmt.Fprintf(bw, "  %-72s %12s -> %-12.4g (new)\n", label, "-", nv)
			default:
				delta := "n/a"
				if ov != 0 {
					delta = fmt.Sprintf("%+.1f%%", 100*(nv-ov)/math.Abs(ov))
				} else if nv == 0 {
					delta = "±0.0%"
				}
				fmt.Fprintf(bw, "  %-72s %12.4g -> %-12.4g %s\n", label, ov, nv, delta)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("sweep: delta: %w", err)
	}
	return nil
}
