// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one workload per invocation from a single process —
// an in-process waitfreed daemon driven over loopback HTTP, or
// waitfree.Check on the library path — checks every output with an
// oracle, and prints its metrics as one JSON object on the last line of
// standard output.
//
//	go run . --workload serve-durable --seed 1 --seconds 15 --trace 0
//
// See README.md for the workloads, the metrics, and which end-to-end
// metric each layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workDir  string
	traceDir string
	flipAt   int
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*outcome, error){
	"serve-durable": runServeDurable,
	"serve-warm":    runServeWarm,
	"check-heavy":   runCheckHeavy,
}

// benchProcs is the processor count the load is sized for: the daemon's
// default worker count and the engine parallelism follow GOMAXPROCS.
const benchProcs = 2

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(benchProcs)
	out, err := workloads[cfg.workload](cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(2)
	}
	if cfg.trace {
		name := fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)
		path, err := writeSpans(cfg.traceDir, name, out.spans)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		out.note("spans: %d written to %s", len(out.spans), path)
		out.metrics.fill(perLayer)
	}
	for _, line := range out.notes {
		fmt.Println(line)
	}
	for _, err := range out.errs {
		fmt.Println("FAILED:", err)
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	for _, d := range want {
		fmt.Printf("%-32s %14.4f %s\n", d.name, out.metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(result{
		Correct: out.correct(), Attempted: out.attempted, Failed: out.failed,
		Metrics: out.metrics.only(want),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !out.correct() {
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "serve-durable, serve-warm or check-heavy")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.IntVar(&cfg.seconds, "seconds", 15, "seconds each measured closed loop runs")
	traceFlag := fs.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	fs.StringVar(&cfg.workDir, "work", filepath.Join(".bench_build", "work"), "scratch directory for job stores and spill files")
	fs.StringVar(&cfg.traceDir, "trace-dir", filepath.Join(".bench_build", "traces"), "directory the traced run writes its spans to")
	fs.IntVar(&cfg.flipAt, "flip-report-byte", -1, "self-check: flip one byte of the n-th served report (serve-* only)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return cfg, errors.New("--trace must be 0 or 1")
	}
	cfg.trace = *traceFlag == 1
	if cfg.seconds < 1 {
		return cfg, errors.New("--seconds must be at least 1")
	}
	return cfg, os.MkdirAll(cfg.workDir, 0o755)
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// outcome is a workload run's verdict, metrics and report lines.
type outcome struct {
	attempted, failed int
	errs              []error
	metrics           metrics
	notes             []string
	spans             []span
}

func (o *outcome) correct() bool { return o.failed == 0 && o.attempted > 0 }

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// finish adds one measured phase's ops and failures.
func (o *outcome) finish(e e2e, errs []error) {
	o.attempted += e.attempted
	o.failed += e.failed
	o.errs = append(o.errs, errs...)
	o.note("ops %d, failed %d, failed_ratio %.4f, latency p50 %.3f ms p90 %.3f ms p99 %.3f ms (n=%d), %.2f ops/s",
		e.attempted, e.failed, ratio(float64(e.failed), float64(e.attempted)),
		quantile(e.latMs, 0.5), quantile(e.latMs, 0.9), quantile(e.latMs, 0.99), len(e.latMs), e.throughput())
}

// e2e is one untraced or traced closed loop, seen from its callers.
type e2e struct {
	latMs             []float64 // failed ops count as the whole window
	attempted, failed int
	elapsed           time.Duration
	rate              float64 // median completed ops per second over the loop's windows
	rssMB             float64
	setup             time.Duration
}

func (e e2e) throughput() float64 { return e.rate }

func (e e2e) addTo(m metrics) {
	m.set("latency_p50_ms", quantile(e.latMs, 0.5))
	m.set("latency_p90_ms", quantile(e.latMs, 0.9))
	m.set("throughput_ops_s", e.throughput())
	m.set("success_ratio", ratio(float64(e.attempted-e.failed), float64(e.attempted)))
	m.set("peak_rss_mb", e.rssMB)
	m.set("setup_s", e.setup.Seconds())
}

// tracingOverhead compares the traced loop b with the untraced loop a,
// and records a's tail as a diagnostic.
func tracingOverhead(m metrics, a, b e2e) {
	m.set("trace.overhead_p50_pct", 100*(ratio(quantile(b.latMs, 0.5), quantile(a.latMs, 0.5))-1))
	m.set("trace.overhead_throughput_pct", 100*(ratio(a.throughput(), b.throughput())-1))
	m.set("server.latency_p99_ms", quantile(a.latMs, 0.99))
	m.set("server.latency_samples", float64(len(a.latMs)))
}
