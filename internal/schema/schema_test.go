package schema

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type row struct {
	Name  string  `json:"name" schema:"nonempty"`
	Count int     `json:"count"`
	Ratio float64 `json:"ratio"`
	Note  string  `json:"note,omitempty"`
}

type doc struct {
	Version int    `json:"schema_version"`
	Rows    []row  `json:"rows"`
	Total   uint64 `json:"total"`
	On      bool   `json:"on"`
}

func (d *doc) Check() error {
	sum := 0
	for _, r := range d.Rows {
		sum += r.Count
	}
	if uint64(sum) != d.Total {
		return errors.New("total: rows disagree")
	}
	return nil
}

// decodeCases are TestDecode's inputs; FuzzDecode seeds from them.
var decodeCases = []struct {
	name, in, wantErr string
}{
	{"valid", `{"schema_version":1,"rows":[{"name":"a","count":2,"ratio":1}],"total":2,"on":true}`, ""},
	{"null slice", `{"schema_version":1,"rows":null,"total":0,"on":false}`, ""},
	{"trailing whitespace", "{\"schema_version\":1,\"rows\":[],\"total\":0,\"on\":false}\n\t ", ""},
	{"not JSON", `{"schema_version":`, "not JSON"},
	{"trailing data", `{"schema_version":1,"rows":[],"total":0,"on":false} {}`, "trailing data"},
	{"unknown key", `{"schema_version":1,"rows":[],"total":0,"on":false,"extra":1}`, "extra: unknown field"},
	{"nested unknown key", `{"schema_version":1,"rows":[{"name":"a","count":0,"ratio":0,"x":1}],"total":0,"on":false}`, "rows[0].x: unknown field"},
	{"case-folded key", `{"Schema_Version":1,"rows":[],"total":0,"on":false}`, "schema_version: missing"},
	{"missing key", `{"schema_version":1,"rows":[],"on":false}`, "total: missing"},
	{"nested missing key", `{"schema_version":1,"rows":[{"name":"a","ratio":0}],"total":0,"on":false}`, "rows[0].count: missing"},
	{"fractional integer", `{"schema_version":1.5,"rows":[],"total":0,"on":false}`, "schema_version: want a nonnegative integer, got 1.5"},
	{"exponent integer", `{"schema_version":1e0,"rows":[],"total":0,"on":false}`, "schema_version"},
	{"negative integer", `{"schema_version":1,"rows":[{"name":"a","count":-1,"ratio":0}],"total":0,"on":false}`, "rows[0].count: want a nonnegative integer, got -1"},
	{"negative float allowed", `{"schema_version":1,"rows":[{"name":"a","count":0,"ratio":-0.5}],"total":0,"on":false}`, ""},
	{"empty nonempty string", `{"schema_version":1,"rows":[{"name":"","count":0,"ratio":0}],"total":0,"on":false}`, "rows[0].name: empty"},
	{"wrong type", `{"schema_version":1,"rows":"no","total":0,"on":false}`, "rows: want array, got string"},
	{"null scalar", `{"schema_version":1,"rows":[],"total":null,"on":false}`, "total: want integer, got null"},
	{"root not object", `[]`, "document: want object, got array"},
	{"check runs", `{"schema_version":1,"rows":[{"name":"a","count":2,"ratio":0}],"total":3,"on":false}`, "total: rows disagree"},
}

func TestDecode(t *testing.T) {
	for _, tc := range decodeCases {
		err := Decode([]byte(tc.in), new(doc))
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// FuzzDecode feeds the strict decoder arbitrary bytes, seeded with
// TestDecode's cases and the committed BENCH_*.json artifacts. It must never
// panic, and a document it accepts must survive a marshal and decode round
// trip.
func FuzzDecode(f *testing.F) {
	for _, tc := range decodeCases {
		f.Add([]byte(tc.in))
	}
	artifacts, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range artifacts {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var d doc
		if Decode(data, &d) != nil {
			return
		}
		again, err := json.Marshal(&d)
		if err != nil {
			t.Fatalf("accepted document does not marshal: %v", err)
		}
		if err := Decode(again, new(doc)); err != nil {
			t.Fatalf("accepted %q, but its re-marshalled form %q fails: %v", data, again, err)
		}
	})
}
