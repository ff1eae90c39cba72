package opt_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"datamime/internal/inspect"
	"datamime/internal/opt"
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
	if back := opt.DiagnosticsFromAttrs(attrs); back != d {
		t.Fatalf("Attrs -> DiagnosticsFromAttrs is not the identity:\nin  %+v\nout %+v", d, back)
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
