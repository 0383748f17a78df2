package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"sampleunion"
)

// TestMain runs main itself, with the arguments in SAMPLER_ARGS, when a
// test starts this binary as the CLI (runCLI).
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("SAMPLER_ARGS"); ok {
		os.Args = append([]string{"sampler"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs the CLI with args in a child process and returns its exit
// code and what it wrote to stderr.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "SAMPLER_ARGS="+strings.Join(args, " "))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), stderr.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, stderr.String()
}

func TestOptionsParsing(t *testing.T) {
	// An empty string is a flag the user left out.
	cases := []struct {
		name           string
		warmup, method string
		wantErr        string
	}{
		{name: "defaults"},
		{name: "pinned", warmup: "histogram"},
		// The adaptive mode is gone: "auto" is one more unknown value, named
		// with its flag and the values that remain.
		{name: "warmup auto", warmup: "auto", wantErr: `unknown -warmup "auto" (valid: histogram, random-walk, exact)`},
		{name: "warmup typo", warmup: "histgram", wantErr: "-warmup"},
		// The join subroutine is not an option: -method is an unknown flag
		// whatever its value, and the flag package refuses it before any
		// value is judged.
		{name: "method auto", method: "auto", wantErr: "flag provided but not defined: -method"},
		{name: "method WJ", method: "WJ", wantErr: "flag provided but not defined: -method"},
		{name: "method EO", method: "EO", wantErr: "flag provided but not defined: -method"},
		{name: "method typo", method: "EX", wantErr: "flag provided but not defined: -method"},
		{name: "both auto", warmup: "auto", method: "auto", wantErr: "flag provided but not defined: -method"},
		{name: "auto vs pinned method", warmup: "auto", method: "EO", wantErr: "flag provided but not defined: -method"},
		{name: "auto vs pinned warmup", warmup: "exact", method: "auto", wantErr: "flag provided but not defined: -method"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.wantErr != "" {
				var args []string
				if tc.warmup != "" {
					args = append(args, "-warmup", tc.warmup)
				}
				if tc.method != "" {
					args = append(args, "-method", tc.method)
				}
				code, stderr := runCLI(t, args...)
				if code != 2 || !strings.Contains(stderr, tc.wantErr) || !strings.Contains(stderr, "Usage") {
					t.Fatalf("sampler %s: exit %d, stderr %q; want exit 2 with usage and %q", strings.Join(args, " "), code, stderr, tc.wantErr)
				}
				return
			}
			o, err := options(tc.warmup, false, 7)
			if err != nil {
				t.Fatal(err)
			}
			if tc.warmup != "" && string(o.Warmup) != tc.warmup {
				t.Fatalf("options %+v, want -warmup %s as typed", o, tc.warmup)
			}
			if o.Seed != 7 {
				t.Fatalf("Seed = %d, want 7", o.Seed)
			}
		})
	}
	// With no -warmup given the CLI samples under what the library's zero
	// Options and an empty served declaration mean (the same literal is
	// pinned in the root package and internal/serve).
	want := sampleunion.Options{Warmup: sampleunion.WarmupRandomWalk, WarmupWalks: 1000, Seed: 7, Shards: 1}
	if got, err := options("", false, 7); err != nil || got != want {
		t.Fatalf("options with no -warmup = %+v, %v; want %+v", got, err, want)
	}
}

func TestLoadUnionWorkloads(t *testing.T) {
	u, err := loadUnion("", "", "UQ1", 0.05, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if u == nil {
		t.Fatal("nil union for UQ1")
	}
	if _, err := loadUnion("", "", "UQ9", 0.05, 0.2, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestRunDrawsCSV(t *testing.T) {
	u, err := loadUnion("", "", "UQ1", 0.02, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := sampleunion.Options{Seed: 1}
	if err := run(u, 8, 1, o, false); err != nil {
		t.Fatal(err)
	}
}
