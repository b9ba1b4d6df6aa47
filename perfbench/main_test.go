package main

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"
)

// runBench runs one workload with a zero time budget (each workload then
// does its minimum op count) and returns the exit code, the printed
// lines and the decoded result line.
func runBench(t *testing.T, workload string, seed string, trace string, corrupt func(int, []float32)) (int, []string, *result) {
	t.Helper()
	var out bytes.Buffer
	code, err := run([]string{"--workload", workload, "--seed", seed, "--seconds", "0", "--trace", trace}, &out, corrupt)
	if code == 2 {
		t.Fatalf("%s: benchmark could not run: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", workload, err)
	}
	return code, lines, &res
}

func TestPrintedMetricsAreDeclared(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	names := func(ms []metricSpec) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	for _, w := range sortedWorkloads() {
		for _, trace := range []string{"0", "1"} {
			if testing.Short() && (trace == "1" || w == "fig9-sweep") {
				continue
			}
			code, _, res := runBench(t, w, "3", trace, nil)
			if code != 0 || !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%s: exit %d, result %+v", w, trace, code, res)
			}
			var got []string
			for n := range res.Metrics {
				got = append(got, n)
			}
			sort.Strings(got)
			want := names(spec.EndToEnd)
			if trace == "1" {
				want = names(spec.PerLayer)
			}
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s trace=%s printed %v, BENCHMARK.json declares %v", w, trace, got, want)
			}
		}
	}
}

func TestSameSeedSameDigest(t *testing.T) {
	for _, w := range []string{"mvm-cold", "coexist-rw", "fleet-serve"} {
		digest := func() string {
			_, lines, _ := runBench(t, w, "5", "0", nil)
			for _, ln := range lines {
				if strings.HasPrefix(ln, "digest ") {
					return ln
				}
			}
			t.Fatalf("%s printed no digest", w)
			return ""
		}
		if a, b := digest(), digest(); a != b {
			t.Errorf("%s: one seed gave two digests: %q, %q", w, a, b)
		}
	}
}

// TestCorruptedOutputCountsAsFailed corrupts two ops past the ones the
// oracle replays, so only the output checks can catch them: one output
// is pushed far off, the other zeroed. Each must fail exactly one op.
func TestCorruptedOutputCountsAsFailed(t *testing.T) {
	for _, w := range []string{"mvm-cold", "model-isr", "coexist-rw"} {
		corrupt := func(op int, out []float32) {
			switch op {
			case oracleOps + 1:
				out[0] += 100
			case oracleOps + 2:
				clear(out)
			}
		}
		code, _, res := runBench(t, w, "5", "0", corrupt)
		if code != 1 || res.Correct || res.Failed != 2 {
			t.Errorf("%s: two corrupted outputs gave exit %d, result %+v", w, code, res)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
	}
	v, p, beyond := tailPercentile(xs)
	if p != 95 || beyond != 10 || v != 189 {
		t.Errorf("200 samples: got p%g = %g with %d beyond, want p95 = 189 with 10", p, v, beyond)
	}
	if _, p, beyond := tailPercentile(xs[:15]); p != 100 || beyond != 0 {
		t.Errorf("15 samples: got p%g with %d beyond, want the maximum", p, beyond)
	}
}

func sortedWorkloads() []string {
	var ws []string
	for w := range runners {
		ws = append(ws, w)
	}
	sort.Strings(ws)
	return ws
}
