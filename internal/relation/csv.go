package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV writes the relation with a header row of attribute names and
// one record per tuple, values rendered as base-10 integers.
func WriteCSV(w io.Writer, r *Relation) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Schema().Attrs()); err != nil {
		return err
	}
	rec := make([]string, r.Arity())
	cols := r.Cols()
	n := r.Len()
	for i := 0; i < n; i++ {
		if !r.Live(i) {
			continue
		}
		for j, col := range cols {
			rec[j] = strconv.FormatInt(int64(col[i]), 10)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSVDict reads a relation written by WriteCSV: the first record is
// the schema, subsequent records are tuples. A column holding any
// non-integer field is dictionary-encoded — every one of its cells is
// interned through d in a single EncodeAll round, so bulk import pays
// one lock round per string column rather than per cell. A nil
// dictionary accepts integer columns only.
func ReadCSVDict(rd io.Reader, name string, d *Dictionary) (*Relation, error) {
	cr := csv.NewReader(rd)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV header: %w", err)
	}
	var recs [][]string
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation: reading CSV line %d: %w", line, err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("relation: CSV line %d has %d fields, want %d", line, len(rec), len(header))
		}
		recs = append(recs, rec)
	}
	rows := make([]Tuple, len(recs))
	flat := make([]Value, len(recs)*len(header))
	for i := range rows {
		rows[i] = Tuple(flat[i*len(header) : (i+1)*len(header) : (i+1)*len(header)])
	}
	for j := range header {
		strCol := false
		for i, rec := range recs {
			v, err := strconv.ParseInt(rec[j], 10, 64)
			if err != nil {
				if d == nil {
					return nil, fmt.Errorf("relation: CSV line %d field %d: %w", i+2, j+1, err)
				}
				strCol = true
				break
			}
			rows[i][j] = Value(v)
		}
		if strCol {
			cells := make([]string, len(recs))
			for i, rec := range recs {
				cells[i] = rec[j]
			}
			for i, v := range d.EncodeAll(cells) {
				rows[i][j] = v
			}
		}
	}
	r := New(name, NewSchema(header...))
	r.AppendRows(rows)
	return r, nil
}
