package gen

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"presto/internal/simtime"
)

// ErrNoSamples is returned by FromCSV when no row in the file yields a
// parsable value in the requested column — the typed form lets callers
// distinguish "wrong column" from a malformed file.
var ErrNoSamples = errors.New("gen: csv contained no parsable samples")

// WriteCSV writes tr in the layout FromCSV reads: a header row, then one
// row per sample with its index, its value at full precision (column 1,
// so FromCSV(r, 1, tr.Interval) returns the same values bit for bit) and
// 1 where an injected event is active. Start and Interval are not
// written; FromCSV takes the interval as an argument.
func WriteCSV(w io.Writer, tr *Trace) error {
	cw := csv.NewWriter(w)
	cw.Write([]string{"sample", "value", "event_active"})
	for i, v := range tr.Values {
		active := "0"
		if tr.EventActive(i) {
			active = "1"
		}
		cw.Write([]string{strconv.Itoa(i), strconv.FormatFloat(v, 'g', -1, 64), active})
	}
	cw.Flush()
	return cw.Error()
}

// FromCSV reads a trace from CSV so real-world data (e.g. the Intel Lab
// trace this repository's generator substitutes for) can drive the
// simulator. Expected layout: a header row, then one sample per row with
// the value in column valueCol. Rows are assumed regularly spaced at
// interval; blank, unparsable or non-finite values (NaN, ±Inf) repeat the
// previous sample (the Intel Lab trace has gaps and real deployments lose
// samples), and a leading one is skipped.
func FromCSV(r io.Reader, valueCol int, interval time.Duration) (*Trace, error) {
	if valueCol < 0 {
		return nil, fmt.Errorf("gen: negative value column %d", valueCol)
	}
	if interval <= 0 {
		return nil, fmt.Errorf("gen: non-positive interval %v", interval)
	}
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // ragged rows tolerated
	cr.ReuseRecord = true   // one cell is read per row; no row outlives it
	if _, err := cr.Read(); err != nil && err != io.EOF {
		return nil, fmt.Errorf("gen: reading csv: %w", err)
	}
	tr := &Trace{Interval: interval}
	rows := 0 // sample rows read, the header excluded
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("gen: reading csv: %w", err)
		}
		rows++
		// A blank cell skips ParseFloat, whose error allocates.
		if valueCol < len(row) && row[valueCol] != "" {
			if v, err := strconv.ParseFloat(row[valueCol], 64); err == nil && !math.IsNaN(v) && !math.IsInf(v, 0) {
				tr.Values = append(tr.Values, v)
				continue
			}
		}
		// A gap repeats the previous sample. A leading gap is skipped
		// rather than filled with invented zeros.
		if n := len(tr.Values); n > 0 {
			tr.Values = append(tr.Values, tr.Values[n-1])
		}
	}
	if rows == 0 {
		return nil, fmt.Errorf("gen: csv needs a header and at least one sample row")
	}
	if len(tr.Values) == 0 {
		return nil, fmt.Errorf("%w in column %d", ErrNoSamples, valueCol)
	}
	// Row i of the file stays at time i*interval even when leading rows
	// were skipped; otherwise every sample would silently shift earlier
	// by the length of the leading gap.
	tr.Start = simtime.Time(rows-len(tr.Values)) * simtime.Time(interval)
	return tr, nil
}
