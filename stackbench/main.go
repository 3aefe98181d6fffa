// Command stackbench is the repository's benchmark of the serving stack:
// client → edge → gateway → store shards, with the write path and the
// paper's daily crawl. It builds the stack in one process from the
// repo's public constructors, drives one of three workloads generated
// from a seed, checks the outputs, and prints one JSON result line.
//
//	go run . --workload browse|funnel|crawl --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the hops are wrapped in span recorders and the result carries
// the per-layer metrics, the spans being written under .bench_build/.
// Only the client → front door hop uses a socket (loopback TCP); the
// tier-to-tier hops use the repo's in-memory fleet.HandlerTransport.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload: browse, funnel or crawl")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "stackbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	r := &run{seed: *seed, seconds: *seconds, traced: *traceFlag == 1, workers: runtime.NumCPU()}
	if r.traced {
		r.tr = newTracer()
	}
	var err error
	switch *workload {
	case "browse":
		err = r.browse()
	case "funnel":
		err = r.funnel()
	case "crawl":
		err = r.crawl()
	default:
		fmt.Fprintf(os.Stderr, "stackbench: unknown --workload %q (have browse, funnel, crawl)\n", *workload)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stackbench:", err)
		os.Exit(1)
	}
	if r.traced {
		dir := filepath.Join(".bench_build", "spans")
		path := filepath.Join(dir, *workload+".tsv.gz")
		if err := os.MkdirAll(dir, 0o755); err == nil {
			err = writeSpans(path, r.tr.snapshot())
			if err != nil {
				fmt.Fprintln(os.Stderr, "stackbench: writing spans:", err)
			} else {
				fmt.Println("spans:", path)
			}
		}
	}
	if !r.print(*workload) {
		os.Exit(1)
	}
}

// run holds one invocation's settings and what it measured.
type run struct {
	seed    uint64
	seconds int
	traced  bool
	tr      *tracer
	// workers is the client's connection budget: nproc.
	workers int

	attempted, failed int
	problems          []string
	values            map[string]float64
	absent            map[string]string
	notes             []string
}

// set records a metric value.
func (r *run) set(name string, v float64) {
	if r.values == nil {
		r.values = map[string]float64{}
	}
	r.values[name] = v
}

// setAbsent records why a per-layer metric has no value on this workload.
func (r *run) setAbsent(reason string, names ...string) {
	if r.absent == nil {
		r.absent = map[string]string{}
	}
	for _, n := range names {
		r.absent[n] = reason
	}
}

// fail records a failed correctness check.
func (r *run) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the human-readable report and, last, the JSON result
// line. It reports whether every correctness check passed.
func (r *run) print(workload string) bool {
	fmt.Println("workload:", workload)
	fmt.Println("env:", envRecord(r.seed))
	fmt.Println("hops: client -> front door over loopback TCP; tier-to-tier over in-memory fleet.HandlerTransport")
	for _, n := range r.notes {
		fmt.Println("note:", n)
	}
	list := endToEnd
	if r.traced {
		list = perLayer
	}
	out := jsonResult{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range list {
		v := r.values[m.name]
		if why, ok := r.absent[m.name]; ok {
			fmt.Printf("metric %-36s %14s %-6s (absent: %s)\n", m.name, "0", m.unit, why)
		} else {
			fmt.Printf("metric %-36s %14.6g %-6s\n", m.name, v, m.unit)
		}
		out.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	// Everything else the run measured, for the reader; not in the result.
	for _, l := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range l {
			if v, ok := r.values[m.name]; ok && !listed(list, m.name) {
				fmt.Printf("info   %-36s %14.6g %-6s\n", m.name, v, m.unit)
			}
		}
	}
	for _, p := range r.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stackbench:", err)
		return false
	}
	fmt.Println(string(b))
	return out.Correct
}

func listed(list []metricDef, name string) bool {
	for _, m := range list {
		if m.name == name {
			return true
		}
	}
	return false
}

// since returns the seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
