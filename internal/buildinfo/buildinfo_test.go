package buildinfo

import (
	"strings"
	"testing"
)

func TestReadAlwaysUsable(t *testing.T) {
	info := Read()
	if info.GoVersion == "" {
		t.Fatal("GoVersion empty — Read must degrade gracefully, not blank")
	}
	s := info.String()
	if s == "" || !strings.Contains(s, info.GoVersion) {
		t.Fatalf("String() = %q, want it to carry the go version %q", s, info.GoVersion)
	}
}

func TestStringTruncatesRevision(t *testing.T) {
	info := Info{Version: "(devel)", Revision: "0123456789abcdef0123", GoVersion: "go1.24.0"}
	s := info.String()
	if !strings.Contains(s, "0123456789ab") || strings.Contains(s, "0123456789abc") {
		t.Fatalf("String() = %q, want revision truncated to 12 chars", s)
	}
	if strings.Contains(s, "(modified)") {
		t.Fatalf("String() = %q, unexpected (modified) marker", s)
	}
}
