package main

import (
	"strings"
	"testing"

	"sampleunion"
)

func TestOptionsParsing(t *testing.T) {
	// An empty string is a flag the user left out.
	cases := []struct {
		name           string
		warmup, method string
		wantErr        string
	}{
		{name: "defaults"},
		{name: "pinned", warmup: "histogram", method: "EO"},
		// The adaptive mode is gone: "auto" is one more unknown value, named
		// with its flag and the values that remain.
		{name: "warmup auto", warmup: "auto", wantErr: `unknown -warmup "auto" (valid: histogram, random-walk, exact)`},
		{name: "method auto", method: "auto", wantErr: `unknown -method "auto" (valid: EW, EO)`},
		{name: "method WJ", method: "WJ", wantErr: `unknown -method "WJ" (valid: EW, EO)`},
		{name: "both auto", warmup: "auto", method: "auto", wantErr: `unknown -warmup "auto"`},
		{name: "auto vs pinned method", warmup: "auto", method: "EO", wantErr: `unknown -warmup "auto"`},
		{name: "auto vs pinned warmup", warmup: "exact", method: "auto", wantErr: `unknown -method "auto"`},
		{name: "warmup typo", warmup: "histgram", wantErr: "-warmup"},
		{name: "method typo", method: "EX", wantErr: "-method"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, err := options(tc.warmup, tc.method, false, 7)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if tc.warmup != "" && (string(o.Warmup) != tc.warmup || string(o.Method) != tc.method) {
				t.Fatalf("options %+v, want -warmup %s -method %s as typed", o, tc.warmup, tc.method)
			}
			if o.Seed != 7 {
				t.Fatalf("Seed = %d, want 7", o.Seed)
			}
		})
	}
	// With neither flag given the CLI samples under what the library's
	// zero Options and an empty served declaration mean (the same literal
	// is pinned in the root package and internal/serve).
	want := sampleunion.Options{Warmup: sampleunion.WarmupRandomWalk, Method: sampleunion.MethodEW, WarmupWalks: 1000, Seed: 7, Shards: 1}
	if got, err := options("", "", false, 7); err != nil || got != want {
		t.Fatalf("options with no -warmup/-method = %+v, %v; want %+v", got, err, want)
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
