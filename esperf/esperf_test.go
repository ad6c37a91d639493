package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// runSmoke runs one workload at smoke sizes and decodes its result line.
func runSmoke(t *testing.T, workload, trace string, corrupt func(string) error) (result, string) {
	t.Helper()
	var out bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke", "--workdir", t.TempDir()}
	if code := run(args, &out, corrupt); code != 0 {
		t.Fatalf("%s trace=%s: exit %d\n%s", workload, trace, code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace=%s: last line is not a result: %v\n%s", workload, trace, err, out.String())
	}
	return res, out.String()
}

// TestSmokeEmitsEveryMetric: every workload, untraced and traced, emits
// every BENCHMARK.json metric with its unit, and passes its checks.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	spec := readBenchmarkJSON(t)
	for _, w := range workloads {
		for _, c := range []struct {
			trace string
			want  []benchMetric
		}{{"0", spec.EndToEnd}, {"1", spec.PerLayer}} {
			t.Run(w+"/trace"+c.trace, func(t *testing.T) {
				res, out := runSmoke(t, w, c.trace, nil)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out)
				}
				if len(res.Metrics) != len(c.want) {
					t.Errorf("%d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(c.want))
				}
				for _, m := range c.want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if c.trace == "1" && !strings.Contains(out, "trace-overhead ops_per_s") {
					t.Errorf("traced run reports no tracing overhead\n%s", out)
				}
			})
		}
	}
}

// TestChecksCatchCorruptFixture: once the references are taken, the
// newest archive segment loses its second half and the checkpoint chain
// is deleted. The mix must fail its checks and count the failures.
func TestChecksCatchCorruptFixture(t *testing.T) {
	corrupt := func(dir string) error {
		segs, err := filepath.Glob(filepath.Join(dir, "seg-*"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no segments in %s (%v)", dir, err)
		}
		sort.Strings(segs)
		newest := segs[len(segs)-1]
		fi, err := os.Stat(newest)
		if err != nil {
			return err
		}
		if err := os.Truncate(newest, fi.Size()/2); err != nil {
			return err
		}
		ckpts, _ := filepath.Glob(filepath.Join(dir, "ckpt-*"))
		for _, c := range ckpts {
			if err := os.Remove(c); err != nil {
				return err
			}
		}
		return nil
	}
	res, out := runSmoke(t, "archive-query", "0", corrupt)
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "check ") {
			t.Log(line)
		}
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted fixture passed: correct=%v failed=%d\n%s", res.Correct, res.Failed, out)
	}
	if res.Failed > res.Attempted {
		t.Errorf("failed %d > attempted %d", res.Failed, res.Attempted)
	}
	for _, name := range []string{"agg-equals-plain-scan", "recover-equals-full-replay"} {
		if !strings.Contains(out, name) || !strings.Contains(out, "check "+name) {
			t.Errorf("check %s not reported", name)
		}
	}
	if !strings.Contains(out, "FAILED") {
		t.Errorf("no check reported FAILED\n%s", out)
	}
}

// TestMain lets a test re-run the binary as the benchmark's main.
func TestMain(m *testing.M) {
	if os.Getenv("ESPERF_RUN_MAIN") == "1" {
		main()
	}
	os.Exit(m.Run())
}

// TestRaceBuildRefuses: under -race the benchmark exits 3 and prints
// nothing, so race-detector timings never become results.
func TestRaceBuildRefuses(t *testing.T) {
	if !raceEnabled {
		t.Skip("run with -race")
	}
	cmd := exec.Command(os.Args[0], "--workload", "lb-archive", "--smoke", "--workdir", t.TempDir())
	cmd.Env = append(os.Environ(), "ESPERF_RUN_MAIN=1")
	out, err := cmd.Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 3 || len(out) != 0 {
		t.Fatalf("race build: err %v, output %q", err, out)
	}
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, esperf runs %v", names, workloads)
	}
	return s
}
