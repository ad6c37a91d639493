package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// report accumulates one run's outputs: operation accounting, output
// checks, the named metrics as sample distributions, and (traced
// runs) the per-layer metrics.
type report struct {
	attempted int
	failed    int
	checks    map[string]*checkResult
	checkKeys []string
	named     map[string]*series
	order     []string
	layer     map[string]value
	layerKeys []string
	notes     []string
	// opsName and latName name the series behind ops_per_s and the
	// op latency percentiles.
	opsName, latName string
}

// checkResult tallies one named output check over a run; Detail is
// the first failure's, or the latest pass's when none failed.
type checkResult struct {
	Name           string
	Passed, Failed int
	Detail         string
}

type series struct {
	unit string
	d    dist
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport() *report {
	return &report{named: map[string]*series{}, layer: map[string]value{}, checks: map[string]*checkResult{}}
}

// sample appends samples of a named metric.
func (r *report) sample(name, unit string, vs ...float64) {
	s, ok := r.named[name]
	if !ok {
		s = &series{unit: unit}
		r.named[name] = s
		r.order = append(r.order, name)
	}
	s.d = append(s.d, vs...)
}

// median returns a named metric's median (NaN when unrecorded).
func (r *report) median(name string) float64 {
	if s, ok := r.named[name]; ok {
		return s.d.median()
	}
	return nan
}

// ops accounts operations: attempted, and how many of them failed.
func (r *report) ops(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// check records one outcome of a named output check. A failed check
// fails the ops it guards; they must already be counted as attempted.
func (r *report) check(name string, ok bool, guarded int, format string, args ...any) {
	c, seen := r.checks[name]
	if !seen {
		c = &checkResult{Name: name}
		r.checks[name] = c
		r.checkKeys = append(r.checkKeys, name)
	}
	detail := fmt.Sprintf(format, args...)
	if ok {
		c.Passed++
		if c.Failed == 0 {
			c.Detail = detail
		}
	} else {
		if c.Failed == 0 {
			c.Detail = detail
		}
		c.Failed++
		r.failed += guarded
	}
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if c.Failed > 0 {
			return false
		}
	}
	return len(r.checks) > 0 && r.failed == 0
}

// setLayer records one per-layer metric.
func (r *report) setLayer(name, unit string, v float64) {
	if _, ok := r.layer[name]; !ok {
		r.layerKeys = append(r.layerKeys, name)
	}
	r.layer[name] = value{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// printNamed writes one human-readable line per named metric: its
// median, the highest percentile with at least ten samples beyond it,
// and the sample count.
func (r *report) printNamed(w io.Writer) {
	for _, name := range r.order {
		s := r.named[name]
		line := fmt.Sprintf("metric %-28s %-7s median=%-12s n=%d", name, s.unit, fmtNum(s.d.median()), len(s.d))
		if p, v, ok := s.d.tail(); ok {
			line += fmt.Sprintf(" p%s=%s", strconv.FormatFloat(p, 'f', -1, 64), fmtNum(v))
		}
		fmt.Fprintln(w, line)
	}
}

func (r *report) printChecks(w io.Writer) {
	for _, k := range r.checkKeys {
		c := r.checks[k]
		status := "ok"
		if c.Failed > 0 {
			status = "FAILED"
		}
		fmt.Fprintf(w, "check %-32s %-6s passed=%d failed=%d %s\n", c.Name, status, c.Passed, c.Failed, c.Detail)
	}
	errFrac := 0.0
	if r.attempted > 0 {
		errFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "metric %-28s %-7s %d/%d = %s\n", "error_frac", "1", r.failed, r.attempted, fmtNum(errFrac))
}

func (r *report) printLayer(w io.Writer) {
	keys := append([]string(nil), r.layerKeys...)
	sort.Strings(keys)
	for _, k := range keys {
		v := r.layer[k]
		fmt.Fprintf(w, "layer %-40s %-10s %s\n", k, v.Unit, fmtNum(v.Value))
	}
}

func fmtNum(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// stamp is the machine and build context written into every result.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	InputSeed  uint64 `json:"input_seed"`
	HeldOut    bool   `json:"held_out"`
	Trace      bool   `json:"trace"`
	Seconds    int    `json:"seconds"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Race       bool   `json:"race"`
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return runtime.GOARCH
}

// resetPeakRSS restarts the process's resident-set high-water mark, so
// VmHWM covers the timed loop and not what ran before it (fixture
// recording). Kernels without the reset keep the whole-process peak.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return nan
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return nan
}

// result is the final stdout line's object.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func writeJSONLine(w io.Writer, prefix string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if prefix != "" {
		_, err = fmt.Fprintf(w, "%s %s\n", prefix, b)
	} else {
		_, err = fmt.Fprintf(w, "%s\n", b)
	}
	return err
}
