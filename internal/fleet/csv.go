package fleet

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteJobsCSV renders the per-job records as CSV — one row per job in
// arrival order, cycles as raw integers — so fleet runs persist as
// plottable artifacts next to the figure CSVs (cmd/fleet -csv, and the
// experiments harness for the Fleet* scenarios). The output is
// deterministic: same run, byte-identical CSV.
func (r Result) WriteJobsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{
		"id", "name", "class", "slo", "arrival", "dispatch", "complete",
		"wait", "turnaround", "device", "deadline", "slack", "missed", "evictions",
		"outcome", "attempts",
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("fleet: write csv header: %w", err)
	}
	for _, j := range r.Jobs {
		// Slack is meaningful for completed latency jobs only; other rows
		// leave the column empty rather than printing a deadline-less (or
		// completion-less) negative.
		slack := ""
		if j.SLO == Latency && j.Outcome == Done {
			slack = strconv.FormatInt(j.Slack(), 10)
		}
		rec := []string{
			strconv.Itoa(j.ID),
			j.Name,
			j.Class.String(),
			j.SLO.String(),
			strconv.FormatUint(j.Arrival, 10),
			strconv.FormatUint(j.Dispatch, 10),
			strconv.FormatUint(j.Complete, 10),
			strconv.FormatUint(j.Wait(), 10),
			strconv.FormatUint(j.Turnaround(), 10),
			strconv.Itoa(j.Device),
			strconv.FormatUint(j.Deadline, 10),
			slack,
			strconv.FormatBool(j.Missed()),
			strconv.Itoa(int(j.Evictions)),
			j.Outcome.String(),
			strconv.Itoa(int(j.Attempts)),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("fleet: write csv row %d: %w", j.ID, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("fleet: flush csv: %w", err)
	}
	return nil
}
