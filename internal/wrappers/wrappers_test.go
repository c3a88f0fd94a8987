package wrappers

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/tuple"
)

func sensorSchema() *tuple.Schema {
	return tuple.NewSchema("sensors",
		tuple.Field{Name: "id", Kind: tuple.IntKind},
		tuple.Field{Name: "temp", Kind: tuple.FloatKind},
		tuple.Field{Name: "loc", Kind: tuple.StringKind},
	)
}

func TestCSVScannerBasic(t *testing.T) {
	in := "1,20.5,lab\n2,30.25,roof\n"
	got, err := ReadAllCSV(strings.NewReader(in), sensorSchema(), CSVOptions{TsColumn: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d tuples", len(got))
	}
	if got[0].Vals[0].AsInt() != 1 || got[0].Vals[1].AsFloat() != 20.5 || got[0].Vals[2].AsString() != "lab" {
		t.Errorf("row 0 = %v", got[0])
	}
}

func TestCSVScannerTsColumnAndHeader(t *testing.T) {
	in := "ts,id,temp,loc\n1000,1,20.5,lab\n2000,2,30.0,roof\n"
	got, err := ReadAllCSV(strings.NewReader(in), sensorSchema(), CSVOptions{TsColumn: 0, Header: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Ts != 1000 || got[1].Ts != 2000 {
		t.Fatalf("tuples = %v", got)
	}
	if got[0].Vals[0].AsInt() != 1 {
		t.Errorf("row 0 = %v", got[0])
	}
}

func TestCSVScannerErrors(t *testing.T) {
	cases := []string{
		"1,2.0\n",     // arity
		"x,2.0,lab\n", // bad int
		"1,y,lab\n",   // bad float
	}
	for _, in := range cases {
		if _, err := ReadAllCSV(strings.NewReader(in), sensorSchema(), CSVOptions{TsColumn: -1}); err == nil {
			t.Errorf("input %q should fail", in)
		}
	}
	if _, err := ReadAllCSV(strings.NewReader("bad,1,2.0,lab\n"), sensorSchema(), CSVOptions{TsColumn: 0}); err == nil {
		t.Error("bad ts should fail")
	}
}

func TestCSVWriterRoundTrip(t *testing.T) {
	sch := sensorSchema()
	var buf bytes.Buffer
	w := NewCSVWriter(&buf, sch, CSVOptions{TsColumn: 0, Header: true})
	in := []*tuple.Tuple{
		tuple.NewData(1000, tuple.Int(1), tuple.Float(20.5), tuple.String_("lab")),
		tuple.NewData(2000, tuple.Int(2), tuple.Float(31), tuple.String_("roof")),
	}
	for _, tp := range in {
		if err := w.Write(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Write(tuple.NewPunct(99)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "ts_us,id,temp,loc\n") {
		t.Fatalf("header missing:\n%s", buf.String())
	}
	got, err := ReadAllCSV(bytes.NewReader(buf.Bytes()), sch, CSVOptions{TsColumn: 0, Header: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("round trip lost tuples: %v", got)
	}
	for i := range in {
		if got[i].Ts != in[i].Ts || !got[i].Vals[1].Equal(in[i].Vals[1]) {
			t.Errorf("row %d: %v != %v", i, got[i], in[i])
		}
	}
}

func TestCSVWriterNoTsColumn(t *testing.T) {
	var buf bytes.Buffer
	w := NewCSVWriter(&buf, sensorSchema(), CSVOptions{TsColumn: -1, Header: true})
	if err := w.Write(tuple.NewData(5, tuple.Int(1), tuple.Float(2), tuple.String_("a"))); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "id,temp,loc\n1,2,a\n"
	if buf.String() != want {
		t.Errorf("output = %q, want %q", buf.String(), want)
	}
}
