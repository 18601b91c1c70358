package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"nemo/internal/cachelib"
	"nemo/internal/trace"
)

// benchSpec is the part of BENCHMARK.json the program must agree with.
type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyOptions is a run small enough for a unit test: 8-page zones keep the
// 60-SG-per-shard geometry (and so the sealed index groups) at ~4 MiB.
func tinyOptions(t *testing.T, workload string) options {
	o := defaultOptions()
	o.workload = workload
	o.seconds = 1
	o.rate = 2000
	o.setupReps = 1
	o.geo.pagesPerZone = 8
	o.spanCap = 1 << 20
	o.workdir = t.TempDir()
	return o
}

// runLines runs once through runMain and returns its exit code and the
// decoded last line of standard output.
func runLines(t *testing.T, o options) (int, map[string]json.RawMessage, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := runMain(o, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil && code == 0 {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return code, last, stderr.String()
}

func TestTinyRunEmitsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			o := tinyOptions(t, w.Name)
			o.trace = traced
			code, last, stderr := runLines(t, o)
			if code != 0 {
				t.Fatalf("%s trace=%v: exit %d: %s", w.Name, traced, code, stderr)
			}
			if len(last) != 4 {
				t.Fatalf("%s: result has keys %v, want correct/attempted/failed/metrics", w.Name, last)
			}
			var res result
			line, _ := json.Marshal(last)
			if err := json.Unmarshal(line, &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", w.Name, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// flipEngine corrupts one byte of the first value GetMany returns.
type flipEngine struct {
	cachelib.EngineV2
	done atomic.Bool
}

func (e *flipEngine) GetMany(keys [][]byte) ([][]byte, []bool) {
	vals, hits := e.EngineV2.GetMany(keys)
	for i, hit := range hits {
		if hit && len(vals[i]) > 0 && e.done.CompareAndSwap(false, true) {
			vals[i][len(vals[i])-1] ^= 0x01
		}
	}
	return vals, hits
}

// deafEngine acknowledges deletes without performing them.
type deafEngine struct{ cachelib.EngineV2 }

func (deafEngine) Delete([]byte) error { return nil }

func expectOracleFailure(t *testing.T, o options) {
	t.Helper()
	_, _, err := run(o)
	var oe *oracleError
	if !errors.As(err, &oe) {
		t.Fatalf("run error = %v, want an oracle violation", err)
	}
	code, last, _ := runLines(t, o)
	if code == 0 {
		t.Fatal("runMain exited 0 on an oracle violation")
	}
	if string(last["correct"]) != "false" {
		t.Errorf("result line says correct=%s", last["correct"])
	}
}

func TestFlippedValueByteFailsRun(t *testing.T) {
	o := tinyOptions(t, "hot-get")
	o.wrapEngine = func(e cachelib.EngineV2) cachelib.EngineV2 { return &flipEngine{EngineV2: e} }
	expectOracleFailure(t, o)
}

func TestIgnoredDeleteFailsRun(t *testing.T) {
	o := tinyOptions(t, "set-churn")
	// A small key space makes GETs of recently deleted, still cached keys
	// common within a one-second run.
	o.geo.keyCap = 256
	o.wrapEngine = func(e cachelib.EngineV2) cachelib.EngineV2 { return deafEngine{e} }
	expectOracleFailure(t, o)

	// The same run against the real engine passes: the failure above is
	// the ignored deletes, not the small key space.
	o.wrapEngine = nil
	if _, _, err := run(o); err != nil {
		t.Fatalf("control run: %v", err)
	}
}

func TestDecodeIDRoundTrips(t *testing.T) {
	ks := newKeySpace(7, []int{32}, 2)
	var r trace.Request
	for _, id := range []uint64{0, 1, 0xdeadbeef, 1<<64 - 1} {
		key := ks.key(&r, keyRef{id: id})
		if got := decodeID(key); got != id {
			t.Errorf("decodeID(key of %d) = %d", id, got)
		}
	}
}
