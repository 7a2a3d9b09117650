package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyRun runs one workload at self-test size and returns its exit code,
// its standard output and the parsed result line.
func tinyRun(t *testing.T, o options) (int, string, result) {
	t.Helper()
	o.tiny = true
	if o.seconds == 0 {
		o.seconds = 0.3
	}
	if o.traceOut == "" {
		o.traceOut = filepath.Join(t.TempDir(), "spans.jsonl")
	}
	var stdout, stderr bytes.Buffer
	code := execute(o, workloads[o.workload], &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", o.workload, err, &stdout, &stderr)
	}
	return code, stdout.String(), res
}

func TestTinyWorkloads(t *testing.T) {
	for _, wl := range []string{"swarm-steady", "serve-hot", "serve-cold"} {
		for _, traced := range []bool{false, true} {
			code, out, res := tinyRun(t, options{workload: wl, seed: 7, trace: traced})
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: exit %d, result %+v\n%s", wl, traced, code, res, out)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl, traced, d.name, m, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, d.name, m.Value)
				}
			}
			if !strings.Contains(out, `"gomaxprocs"`) || !strings.Contains(out, `"cpu"`) {
				t.Errorf("%s: no machine record in\n%s", wl, out)
			}
		}
	}
}

func TestTracedServeAttributes(t *testing.T) {
	for _, wl := range []string{"serve-hot", "serve-cold"} {
		spans := filepath.Join(t.TempDir(), "spans.jsonl")
		_, out, res := tinyRun(t, options{workload: wl, seed: 3, trace: true, seconds: 1.2, traceOut: spans})
		if !strings.Contains(out, " 0 not linked through gateway and replica") {
			t.Errorf("%s: traced queries were not linked through every layer:\n%s", wl, out)
		}
		if g := res.Metrics["trace.attribution_gap"].Value; g > attributionTolerance {
			t.Errorf("%s: attribution gap %v > %v", wl, g, attributionTolerance)
		}
		want := map[string]bool{"serve.handler_ms_p50": true, "gateway.self_ms_p50": true}
		if wl == "serve-cold" {
			for _, m := range []string{"dist.run_ms_p50", "eval.self_ms_p50", "eval.sim_ms_p50", "serve.computations"} {
				want[m] = true
			}
		} else if r := res.Metrics["serve.cache_hit_ratio"].Value; r != 1 {
			t.Errorf("serve-hot: cache hit ratio %v, want 1", r)
		}
		for m := range want {
			if res.Metrics[m].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", wl, m, res.Metrics[m].Value)
			}
		}

		raw, err := os.ReadFile(spans)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if !strings.HasPrefix(lines[0], `{"machine":`) {
			t.Errorf("%s: span file starts with %q", wl, lines[0])
		}
		parented := 0
		for _, l := range lines[1:] {
			var sp struct {
				Name   string `json:"name"`
				Parent int    `json:"parent"`
			}
			if err := json.Unmarshal([]byte(l), &sp); err != nil {
				t.Fatalf("%s: span line %q: %v", wl, l, err)
			}
			if sp.Name == "serve.handler" && sp.Parent >= 0 {
				parented++
			}
		}
		if parented == 0 {
			t.Errorf("%s: no replica span is linked to a parent", wl)
		}
	}
}

func TestSwarmDigestRepeats(t *testing.T) {
	digest := func() string {
		_, out, _ := tinyRun(t, options{workload: "swarm-steady", seed: 5})
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, "digest: ") {
				return strings.Fields(l)[1]
			}
		}
		t.Fatalf("no digest line in\n%s", out)
		return ""
	}
	if a, b := digest(), digest(); a != b {
		t.Fatalf("same seed, different statistics: %s vs %s", a, b)
	}
}

// corruptQueries appends a space to every /v1/query reply body.
func corruptQueries(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/query" {
			next.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		next.ServeHTTP(rec, r)
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(append(rec.Body.Bytes(), ' '))
	})
}

func TestCorruptReplyTripsGate(t *testing.T) {
	for _, wl := range []string{"serve-hot", "serve-cold"} {
		code, out, res := tinyRun(t, options{workload: wl, seed: 9, tamper: corruptQueries})
		if code != 1 || res.Correct || !strings.Contains(out, "differs from the reference replica") {
			t.Errorf("%s: corrupted replies passed: exit %d, correct %v\n%s", wl, code, res.Correct, out)
		}
	}
}

func TestQuiescentSwarmTripsGate(t *testing.T) {
	z := swarmTiny
	z.seeds = 0 // no source of pieces: nobody ever trades
	out := &outcome{values: map[string]float64{}, heap: startHeapSampler()}
	if err := swarmRun(options{workload: "swarm-steady", seed: 1, seconds: 0.1}, out, z); err != nil {
		t.Fatal(err)
	}
	if len(out.gates) != 1 || !strings.Contains(out.gates[0], "quiescent") {
		t.Fatalf("gates = %q, want the quiescence gate alone", out.gates)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's metric and
// workload tables in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
