package opt_test

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"datamime/internal/inspect"
	"datamime/internal/opt"
	"datamime/internal/telemetry"
)

// TestDiagnosticsWireTable pins the snapshot's field table against the struct
// itself: every field set (through reflection) to a distinct value must
// survive Attrs → DiagnosticsFromAttrs, under a key of its own. A field added
// to Diagnostics without a table row decodes back as zero and fails here.
func TestDiagnosticsWireTable(t *testing.T) {
	var d opt.Diagnostics
	v := reflect.ValueOf(&d).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Float64:
			f.SetFloat(float64(i) + 1.5)
		case reflect.Int:
			f.SetInt(int64(i) + 1)
		default:
			t.Fatalf("field %s is a %s: attributes carry only float64 and int fields",
				v.Type().Field(i).Name, f.Kind())
		}
	}

	attrs := d.Attrs()
	// Two rows sharing a key would collapse into one map entry.
	if len(attrs) != v.NumField() {
		t.Fatalf("Attrs has %d keys for %d fields: %v", len(attrs), v.NumField(), attrs)
	}
	if back, err := opt.DiagnosticsFromAttrs(attrs); err != nil || back != d {
		t.Fatalf("Attrs -> DiagnosticsFromAttrs is not the identity:\nin  %+v\nout %+v (%v)", d, back, err)
	}

	// inspect.DiagRecord embeds the snapshot, so its JSON is the iteration
	// followed by the snapshot's own fields and changes nowhere else.
	snap, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(inspect.DiagRecord{Iter: 7, Diagnostics: d})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"iter":7,` + string(snap[1:]); string(got) != want {
		t.Fatalf("DiagRecord JSON = %s\nwant %s", got, want)
	}
}

// FuzzDiagnosticsFromAttrs feeds arbitrary JSON through DiagnosticsFromAttrs,
// the decoder of every search.diagnostics event an artifact carries. It must
// never panic; a snapshot it accepts has no negative count, and encoding it
// and decoding it again gives it back.
func FuzzDiagnosticsFromAttrs(f *testing.F) {
	// The seeds are the attributes of the diagnostics events in inspect's
	// golden run and in FuzzLoadRun's diagnostics-overflow input.
	golden, err := os.ReadFile("../inspect/testdata/run.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	corpus, err := os.ReadFile("../inspect/testdata/fuzz/FuzzLoadRun/diagnostics-overflow")
	if err != nil {
		f.Fatal(err)
	}
	_, quoted, _ := strings.Cut(string(corpus), "[]byte(")
	overflow, err := strconv.Unquote(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(quoted), ")")))
	if err != nil {
		f.Fatalf("diagnostics-overflow: %v", err)
	}
	seeds := 0
	for _, artifact := range [][]byte{golden, []byte(overflow)} {
		_, err := telemetry.ScanJSONL(bytes.NewReader(artifact), func(ev telemetry.Event) error {
			if ev.Type != telemetry.TypeSearchDiagnostics {
				return nil
			}
			data, err := json.Marshal(ev.Attrs)
			f.Add(data)
			seeds++
			return err
		})
		if err != nil {
			f.Fatal(err)
		}
	}
	if seeds == 0 {
		f.Fatal("no diagnostics events to seed from")
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var attrs map[string]float64
		if json.Unmarshal(data, &attrs) != nil {
			return
		}
		d, err := opt.DiagnosticsFromAttrs(attrs)
		if err != nil {
			return
		}
		if d.Observations < 0 || d.Candidates < 0 {
			t.Fatalf("accepted a negative count: %+v", d)
		}
		if back, err := opt.DiagnosticsFromAttrs(d.Attrs()); err != nil || back != d {
			t.Fatalf("Attrs -> DiagnosticsFromAttrs is not the identity:\nin  %+v\nout %+v (%v)", d, back, err)
		}
	})
}
