// Package buildinfo exposes the binary's embedded build identity — module
// version, VCS revision, dirty flag, Go toolchain — via
// runtime/debug.ReadBuildInfo. Every cmd/ binary serves it behind -version,
// workers announce it to their coordinator, and every corpus record carries
// it, so a run can always be traced back to the exact build that produced it.
package buildinfo

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
)

// Info is the build identity of the running binary.
type Info struct {
	// Version is the main module's version ("(devel)" for plain `go build`).
	Version string
	// Revision is the VCS commit hash, when the binary was built inside a
	// checkout ("" otherwise).
	Revision string
	// Modified reports uncommitted changes at build time.
	Modified bool
	// GoVersion is the toolchain that built the binary.
	GoVersion string
}

// Read extracts the build identity. It degrades gracefully: binaries built
// without module info (or with -buildvcs=false) still report the Go version.
func Read() Info {
	info := Info{Version: "(unknown)", GoVersion: runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return info
	}
	if bi.Main.Version != "" {
		info.Version = bi.Main.Version
	}
	if bi.GoVersion != "" {
		info.GoVersion = bi.GoVersion
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			info.Revision = s.Value
		case "vcs.modified":
			info.Modified = s.Value == "true"
		}
	}
	return info
}

// String renders the identity as the one-liner the -version flags print:
//
//	datamime-inspect (devel) rev 1a2b3c4d (modified) go1.24.0
func (i Info) String() string {
	var b strings.Builder
	b.WriteString(i.Version)
	if i.Revision != "" {
		rev := i.Revision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		fmt.Fprintf(&b, " rev %s", rev)
		if i.Modified {
			b.WriteString(" (modified)")
		}
	}
	fmt.Fprintf(&b, " %s", i.GoVersion)
	return b.String()
}
