package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// shortened cuts a workload's training down to six measured batches per
// repetition. Much smaller batches take so little time that host noise
// swamps the traced run's layer-probe reconciliation.
func shortened(spec func() (trainSpec, error)) func() (trainSpec, error) {
	return func() (trainSpec, error) {
		s, err := spec()
		s.measured = 6
		return s, err
	}
}

// testSpec is the events workload's training, shortened.
func testSpec(t *testing.T) trainSpec {
	s, err := shortened(eventsSpec)()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runWorkload runs a workload through realMain and decodes its result line.
func runWorkload(t *testing.T, name string, fn func(*run) error, args ...string) (int, result, string) {
	t.Helper()
	workloads[name] = fn
	defer delete(workloads, name)
	var stdout, stderr bytes.Buffer
	code := realMain(append([]string{"--workload", name, "--out", t.TempDir()}, args...), &stdout, &stderr)
	var res result
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if last := lines[len(lines)-1]; last != "" {
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			t.Fatalf("result line %q: %v", last, err)
		}
	}
	return code, res, stderr.String()
}

func nudge(a *arm) {
	w := a.tr.Net.Params()[0].W
	w.Data[0] = math.Nextafter32(w.Data[0], 1)
}

func TestDigestMismatchFailsRun(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(rep int, a *arm)
		want    string
	}{
		{"ckpt-vs-bptt", func(rep int, a *arm) {
			if a.label == labelCkpt {
				nudge(a)
			}
		}, "bptt weights"},
		{"skipper-across-reps", func(rep int, a *arm) {
			if rep == 1 && a.label == labelSkipper {
				nudge(a)
			}
		}, "skipper weights differ between repetition"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := testSpec(t)
			s.corrupt = tc.corrupt
			ss := serveEvents()
			ss.setups = 1
			code, res, stderr := runWorkload(t, "test-train", func(r *run) error {
				return trainAndServe(r, func() (trainSpec, error) { return s, nil }, ss)
			}, "--seconds", "1")
			if code == 0 || res.Correct {
				t.Fatalf("exit %d, correct=%v: a weight mismatch must fail the run", code, res.Correct)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Fatalf("stderr does not name the failed check %q:\n%s", tc.want, stderr)
			}
			if len(res.Metrics) == 0 {
				t.Fatalf("a failed check must still report its metrics")
			}
		})
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer map[string]bool) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]bool{}, map[string]bool{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = true
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = true
	}
	return endToEnd, perLayer
}

// TestMetricNames runs both workloads, shortened, in both modes on a second
// seed, and checks that every emitted metric name is well formed and that
// each run emits exactly the metrics BENCHMARK.json declares for its mode:
// every end-to-end metric untraced, every per-layer metric traced.
func TestMetricNames(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for name := range endToEnd {
		if !metricName.MatchString(name) {
			t.Errorf("BENCHMARK.json end-to-end metric %q is not [A-Za-z0-9_.-]+", name)
		}
	}
	for name := range perLayer {
		if !metricName.MatchString(name) {
			t.Errorf("BENCHMARK.json per-layer metric %q is not [A-Za-z0-9_.-]+", name)
		}
	}
	short := func(ss serveSpec) serveSpec {
		ss.setups, ss.sequential = 2, 20
		return ss
	}
	for _, tc := range []struct {
		name string
		fn   func(*run) error
	}{
		{"test-frames", func(r *run) error { return trainAndServe(r, shortened(framesSpec), short(serveFrames())) }},
		{"test-events", func(r *run) error { return trainAndServe(r, shortened(eventsSpec), short(serveEvents())) }},
	} {
		for _, traced := range []string{"0", "1"} {
			code, res, stderr := runWorkload(t, tc.name, tc.fn, "--seed", "2", "--seconds", "4", "--trace", traced)
			if code != 0 || !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("%s trace %s: exit %d, result %+v\n%s", tc.name, traced, code, res, stderr)
			}
			declared := endToEnd
			if traced == "1" {
				declared = perLayer
			}
			for name, m := range res.Metrics {
				if !metricName.MatchString(name) || !declared[name] {
					t.Errorf("%s trace %s emitted %q, which is malformed or not declared", tc.name, traced, name)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace %s: %s = %v", tc.name, traced, name, m.Value)
				}
				if traced == "0" && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", tc.name, name)
				}
			}
			for name := range declared {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace %s did not emit declared metric %q", tc.name, traced, name)
				}
			}
		}
	}
}
