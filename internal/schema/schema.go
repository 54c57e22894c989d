// Package schema is the one strict decoder for the repo's audit documents:
// the §3.1 replayability reports, the §3.4 verification and translation-
// validation reports, the capture-store report of the §3.2 storage budget,
// and every BENCH_*.json baseline. Each document is a single Go type declared
// in the package that produces it; the producer marshals that type and every
// checker decodes it here, so a schema is written down exactly once.
//
// Decode enforces what a type declares: no unknown or misspelled keys, no
// trailing data, every JSON-tagged field that is not omitempty present (null
// is accepted for a slice), integers whole and nonnegative, and strings tagged
// `schema:"nonempty"` non-empty. The document's own Check method then holds
// the cross-field invariants. Errors name the JSON path, such as
// methods[0].effect.
package schema

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// Checker is a document type: Check reports the first violated invariant
// that relates several fields of an already well-typed document.
type Checker interface {
	Check() error
}

// Decode strictly decodes one JSON document from data into v, a pointer to
// a struct, and then runs v.Check.
func Decode(data []byte, v Checker) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var raw any
	if err := dec.Decode(&raw); err != nil {
		return fmt.Errorf("not JSON: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the document")
	}
	if err := walk(raw, reflect.TypeOf(v).Elem(), ""); err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return err
	}
	return v.Check()
}

// walk checks raw, a value decoded with UseNumber, against type t.
func walk(raw any, t reflect.Type, path string) error {
	switch t.Kind() {
	case reflect.Struct:
		obj, ok := raw.(map[string]any)
		if !ok {
			return mismatch(path, "object", raw)
		}
		return walkStruct(obj, t, path)
	case reflect.Slice:
		arr, ok := raw.([]any)
		if !ok {
			return mismatch(path, "array", raw)
		}
		for i, el := range arr {
			if err := walk(el, t.Elem(), fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
		return nil
	case reflect.String:
		if _, ok := raw.(string); !ok {
			return mismatch(path, "string", raw)
		}
		return nil
	case reflect.Bool:
		if _, ok := raw.(bool); !ok {
			return mismatch(path, "bool", raw)
		}
		return nil
	case reflect.Float32, reflect.Float64:
		if _, ok := raw.(json.Number); !ok {
			return mismatch(path, "number", raw)
		}
		return nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		n, ok := raw.(json.Number)
		if !ok {
			return mismatch(path, "integer", raw)
		}
		if _, err := strconv.ParseUint(n.String(), 10, t.Bits()); err != nil {
			return fmt.Errorf("%s: want a nonnegative integer, got %s", path, n)
		}
		return nil
	}
	return fmt.Errorf("%s: Go type %s has no JSON schema rule", path, t)
}

// walkStruct checks an object against the JSON-tagged fields of struct t.
func walkStruct(obj map[string]any, t reflect.Type, path string) error {
	known := map[string]bool{}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag := f.Tag.Get("json")
		if !f.IsExported() || tag == "-" {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		if name == "" {
			name = f.Name
		}
		known[name] = true
		at := name
		if path != "" {
			at = path + "." + name
		}
		val, present := obj[name]
		switch {
		case !present && strings.Contains(opts, "omitempty"):
			continue
		case !present:
			return fmt.Errorf("%s: missing", at)
		case val == nil && f.Type.Kind() == reflect.Slice:
			continue
		}
		if err := walk(val, f.Type, at); err != nil {
			return err
		}
		if f.Tag.Get("schema") == "nonempty" && val == "" {
			return fmt.Errorf("%s: empty", at)
		}
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !known[k] {
			if path != "" {
				k = path + "." + k
			}
			return fmt.Errorf("%s: unknown field", k)
		}
	}
	return nil
}

// mismatch reports a value of the wrong JSON type.
func mismatch(path, want string, raw any) error {
	got := "null"
	switch raw.(type) {
	case map[string]any:
		got = "object"
	case []any:
		got = "array"
	case string:
		got = "string"
	case bool:
		got = "bool"
	case json.Number:
		got = "number"
	}
	if path == "" {
		path = "document"
	}
	return fmt.Errorf("%s: want %s, got %s", path, want, got)
}
