// Command bench is the repository's benchmark: the one program every
// performance claim about this repo is measured with. BENCHMARK.json at
// the repository root describes it; README.md beside this file explains
// the workloads, the metrics and how they interact.
//
//	go run ./bench --workload zipf_flat --seed 1 --seconds 20 --trace 0
//
// generates the workload's inputs from the seed, builds and warms the
// serving path, drives it with a two-client closed loop for the given
// time, checks every response, and prints each metric by name with its
// unit and sample count; the last line of standard output is one JSON
// object {correct, attempted, failed, metrics}. --trace 0 reports the
// end-to-end metrics from an untraced run, --trace 1 the per-layer
// metrics from a run with bench's tracing decorators in place. Without
// --workload every workload runs both ways.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"proximity/internal/core"
)

// setupRepeats is how many times an untraced run builds its system:
// setup_s is the median, so that one page-fault storm does not set it.
const setupRepeats = 3

// report is the result of one (workload, trace) run: the last line of
// the printout, plus the sample counts for result.json.
type report struct {
	Workload  string  `json:"workload"`
	Trace     int     `json:"trace"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// artifact is result.json: the header two results need to be compared,
// then the runs of this invocation.
type artifact struct {
	Schema     int      `json:"schema"`
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go"`
	GOARCH     string   `json:"goarch"`
	CPU        string   `json:"cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Seed       uint64   `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Runs       []report `json:"runs"`
}

func main() {
	name := flag.String("workload", "", "workload to run (default: all, untraced then traced)")
	seed := flag.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 20, "how long one run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
	out := flag.String("out", filepath.Join("bench", "out"), "directory for result.json, traces and the warm file")
	flag.Parse()

	if err := benchMain(*name, *seed, *seconds, *trace, *out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func benchMain(name string, seed uint64, seconds float64, trace int, out string) error {
	type job struct {
		w     workload
		trace int
	}
	var jobs []job
	if name == "" {
		for _, w := range workloads {
			jobs = append(jobs, job{w, 0}, job{w, 1})
		}
	} else {
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		if trace != 0 && trace != 1 {
			return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
		}
		jobs = []job{{w, trace}}
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", seconds)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}

	art := artifact{
		Schema: 1, Commit: gitCommit(), GoVersion: runtime.Version(), GOARCH: runtime.GOARCH,
		CPU: cpuModel(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Seconds: seconds,
	}
	var failures []error
	for _, j := range jobs {
		rep, err := runWorkload(j.w, fullParams(), seed, time.Duration(seconds*float64(time.Second)), j.trace == 1, out)
		if err != nil {
			failures = append(failures, fmt.Errorf("%s: %w", j.w.name, err))
		}
		art.Runs = append(art.Runs, rep)
		if err := rep.print(os.Stdout); err != nil {
			return err
		}
	}
	err := core.WriteFileAtomic(filepath.Join(out, "result.json"), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(art)
	})
	return errors.Join(append(failures, err)...)
}

// runWorkload performs one run and always returns a report; a non-nil
// error means an output check failed and the report says correct=false.
func runWorkload(w workload, p params, seed uint64, d time.Duration, traced bool, out string) (report, error) {
	rep := report{Workload: w.name, Attempted: 1, Failed: 1, Metrics: metrics{}}
	var (
		res  runResult
		m    metrics
		want map[string]string
		err  error
	)
	if traced {
		rep.Trace, want = 1, perLayerUnits
		res, m, err = runTraced(w, p, seed, d, out)
	} else {
		want = endToEndUnits
		res, m, err = runUntraced(w, p, seed, d, out)
	}
	if res.attempted > 0 {
		rep.Attempted, rep.Failed = res.attempted, res.failed
	}
	if err != nil {
		return rep, err
	}
	rep.Metrics = m
	for name := range want {
		if _, ok := m[name]; !ok {
			return rep, fmt.Errorf("metric %s missing from the printout", name)
		}
	}
	rep.Correct = true
	return rep, nil
}

// runUntraced measures on a freshly built system, reports the
// end-to-end metrics, and then builds the system setupRepeats−1 more
// times so that setup_s is a median. The measured build comes first:
// nothing of an earlier build is then alive to blur live_heap_mb.
func runUntraced(w workload, p params, seed uint64, d time.Duration, out string) (runResult, metrics, error) {
	s, err := setup(w, seed, p, out, nil)
	if err != nil {
		return runResult{}, nil, err
	}
	setups := []float64{s.setupS}
	res := s.run(d, 0)
	err = s.checkAccounting(res)
	m := s.endToEnd(res, d)
	res.records = nil
	m.set("live_heap_mb", s.liveHeapMB(), "MB", 1)
	if err = errors.Join(err, s.stop()); err != nil {
		return res, nil, err
	}
	for len(setups) < setupRepeats {
		if s, err = setup(w, seed, p, out, nil); err != nil {
			return res, nil, err
		}
		setups = append(setups, s.setupS)
		if err = s.stop(); err != nil {
			return res, nil, err
		}
	}
	m.set("setup_s", quantile(setups, 0.5), "s", len(setups))
	return res, m, nil
}

// runTraced measures half the time untraced, then replays exactly the
// same stream segment from an identical fresh system with the tracing
// decorators in place: the per-layer metrics come from the second
// pass, trace.overhead_frac from the two throughputs.
func runTraced(w workload, p params, seed uint64, d time.Duration, out string) (runResult, metrics, error) {
	s, err := setup(w, seed, p, out, nil)
	if err != nil {
		return runResult{}, nil, err
	}
	plain := s.run(d/2, 0)
	if err := errors.Join(s.checkAccounting(plain), s.stop()); err != nil {
		return plain, nil, err
	}
	qps := float64(len(plain.records)) / plain.wall.Seconds()

	tr := newTracer(w)
	if s, err = setup(w, seed, p, out, tr); err != nil {
		return runResult{}, nil, err
	}
	res := s.run(0, plain.attempted)
	err = s.checkAccounting(res)
	reqs, terr := tr.requests()
	if terr == nil {
		var searches int
		for i := range reqs {
			if reqs[i].has[kindSearch] {
				searches++
			}
		}
		if misses := len(res.records) - hitCount(res.records); searches != misses {
			terr = fmt.Errorf("trace: %d index searches for %d misses", searches, misses)
		}
	}
	if err = errors.Join(err, terr, tr.write(out, w.name)); err != nil {
		return res, nil, errors.Join(err, s.stop())
	}
	m := s.perLayer(res, reqs, qps)
	return res, m, s.stop()
}

// print writes the run as a table, one metric per line with unit and
// sample count (a per-layer metric of a module off the workload's path
// has no samples and no line), then the JSON object the benchmark contract asks for
// as the last line: value and unit only.
func (r report) print(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]valueUnit{}}
	for _, name := range names {
		m := r.Metrics[name]
		line.Metrics[name] = valueUnit{m.Value, m.Unit}
		if m.N == 0 {
			continue
		}
		fmt.Fprintf(w, "%-14s trace=%d  %-30s %16.4f %-6s n=%d\n", r.Workload, r.Trace, name, m.Value, m.Unit, m.N)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// gitCommit is `git rev-parse HEAD`, or "unknown" outside a repository.
func gitCommit() string {
	b, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
