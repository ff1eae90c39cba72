package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs main itself when a test re-executes this binary as the
// command, so the command's real flag set parses real arguments.
func TestMain(m *testing.M) {
	if os.Getenv("DATAMIME_RUN_MAIN") == "1" {
		// The test binary's own -test.* flags are not the command's.
		flag.CommandLine = flag.NewFlagSet("datamime-worker", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCommand runs main with args in a child process and returns its stderr
// and exit code.
func runCommand(t *testing.T, args ...string) ([]byte, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DATAMIME_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return stderr.Bytes(), exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return stderr.Bytes(), 0
}

// TestUsageGolden pins `datamime-worker -h`: every flag, its default and its help
// text. Adding or losing a flag is a diff of testdata/usage.golden.
func TestUsageGolden(t *testing.T) {
	got, code := runCommand(t, "-h")
	want, err := os.ReadFile("testdata/usage.golden")
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 || !bytes.Equal(got, want) {
		t.Errorf("-h exited %d, output drifted from testdata/usage.golden\n--- got ---\n%s", code, got)
	}
}

// TestRemovedFlagsAreRefused: the worker keeps no cache, its backlog is its
// capacity and its heartbeat period is a constant, so -cache-capacity,
// -backlog and -register-interval are unknown flags like any other, refused
// with exit 2 before it listens.
func TestRemovedFlagsAreRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-cache-capacity", "8"},
		{"-backlog", "8"},
		{"-register-interval", "1s"},
	} {
		got, code := runCommand(t, args...)
		if code != 2 || !strings.Contains(string(got), "flag provided but not defined: "+args[0]) {
			t.Errorf("%s exited %d:\n%s", args[0], code, got)
		}
	}
}
