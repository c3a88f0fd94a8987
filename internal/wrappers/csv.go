// Package wrappers implements the input and output wrappers that connect
// the DSMS to the outside world (paper §3: source-node buffers "are being
// filled by external wrappers", and output wrappers drain sink buffers):
// CSV codecs over io.Reader/io.Writer.
package wrappers

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/tuple"
)

// CSVOptions configures CSV decoding.
type CSVOptions struct {
	// Comma is the field separator (default ',').
	Comma rune
	// Header skips the first record.
	Header bool
	// TsColumn, when ≥ 0, names the column holding the tuple's external
	// timestamp in microseconds. The column is consumed (not part of the
	// schema fields).
	TsColumn int
}

// CSVScanner decodes CSV records into tuples of a schema.
type CSVScanner struct {
	r      *csv.Reader
	schema *tuple.Schema
	opts   CSVOptions
	line   int
	did    bool
}

// NewCSVScanner returns a scanner decoding records from r against the
// schema.
func NewCSVScanner(r io.Reader, schema *tuple.Schema, opts CSVOptions) *CSVScanner {
	cr := csv.NewReader(r)
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	cr.FieldsPerRecord = -1
	return &CSVScanner{r: cr, schema: schema, opts: opts}
}

// Next decodes the next record. It returns io.EOF at end of input.
func (s *CSVScanner) Next() (*tuple.Tuple, error) {
	if !s.did && s.opts.Header {
		if _, err := s.r.Read(); err != nil {
			return nil, err
		}
	}
	s.did = true
	rec, err := s.r.Read()
	if err != nil {
		return nil, err
	}
	s.line++
	wantLen := s.schema.Arity()
	if s.opts.TsColumn >= 0 {
		wantLen++
	}
	if len(rec) != wantLen {
		return nil, fmt.Errorf("wrappers: record %d has %d fields, want %d", s.line, len(rec), wantLen)
	}
	t := tuple.Get()
	fi := 0
	for i, cell := range rec {
		if i == s.opts.TsColumn {
			us, err := strconv.ParseInt(cell, 10, 64)
			if err != nil {
				tuple.Put(t)
				return nil, fmt.Errorf("wrappers: record %d: bad timestamp %q: %v", s.line, cell, err)
			}
			t.Ts = tuple.Time(us)
			continue
		}
		f := s.schema.Field(fi)
		v, err := tuple.ParseValue(f.Kind, cell)
		if err != nil {
			tuple.Put(t)
			return nil, fmt.Errorf("wrappers: record %d, field %s: %v", s.line, f.Name, err)
		}
		t.Vals = append(t.Vals, v)
		fi++
	}
	return t, nil
}

// ReadAllCSV decodes every record.
func ReadAllCSV(r io.Reader, schema *tuple.Schema, opts CSVOptions) ([]*tuple.Tuple, error) {
	s := NewCSVScanner(r, schema, opts)
	var out []*tuple.Tuple
	for {
		t, err := s.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
}

// CSVWriter encodes tuples as CSV records.
type CSVWriter struct {
	w      *csv.Writer
	schema *tuple.Schema
	opts   CSVOptions
	wrote  bool
}

// NewCSVWriter returns a writer encoding tuples of the schema to w.
func NewCSVWriter(w io.Writer, schema *tuple.Schema, opts CSVOptions) *CSVWriter {
	cw := csv.NewWriter(w)
	if opts.Comma != 0 {
		cw.Comma = opts.Comma
	}
	return &CSVWriter{w: cw, schema: schema, opts: opts}
}

// Write encodes one tuple. Punctuation tuples are skipped (wrappers sit
// outside the graph; punctuation is internal-only).
func (w *CSVWriter) Write(t *tuple.Tuple) error {
	if t.IsPunct() {
		return nil
	}
	if !w.wrote && w.opts.Header {
		total := w.schema.Arity()
		if w.opts.TsColumn >= 0 {
			total++
		}
		rec := make([]string, 0, total)
		fi := 0
		for i := 0; i < total; i++ {
			if i == w.opts.TsColumn {
				rec = append(rec, "ts_us")
				continue
			}
			rec = append(rec, w.schema.Fields[fi].Name)
			fi++
		}
		if err := w.w.Write(rec); err != nil {
			return err
		}
	}
	w.wrote = true
	rec := make([]string, 0, len(t.Vals)+1)
	vi := 0
	total := len(t.Vals)
	if w.opts.TsColumn >= 0 {
		total++
	}
	for i := 0; i < total; i++ {
		if i == w.opts.TsColumn {
			rec = append(rec, strconv.FormatInt(int64(t.Ts), 10))
			continue
		}
		rec = append(rec, t.Vals[vi].String())
		vi++
	}
	return w.w.Write(rec)
}

// Flush flushes buffered output.
func (w *CSVWriter) Flush() error {
	w.w.Flush()
	return w.w.Error()
}
