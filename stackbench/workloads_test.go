package main

import (
	"runtime"
	"testing"
)

// TestWorkloadsShort runs each workload for one second, untraced and
// traced, and requires its correctness checks to pass and every metric
// of the mode to be reported.
func TestWorkloadsShort(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full stack")
	}
	for _, wl := range []string{"browse", "funnel", "crawl"} {
		for _, traced := range []bool{false, true} {
			r := &run{seed: 3, seconds: 1, traced: traced, workers: runtime.NumCPU()}
			if traced {
				r.tr = newTracer()
			}
			var err error
			switch wl {
			case "browse":
				err = r.browse()
			case "funnel":
				err = r.funnel()
			case "crawl":
				err = r.crawl()
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			if len(r.problems) > 0 {
				t.Errorf("%s traced=%v: checks failed: %v", wl, traced, r.problems)
			}
			list := endToEnd
			if traced {
				list = perLayer
			}
			for _, m := range list {
				_, set := r.values[m.name]
				_, absent := r.absent[m.name]
				if !set && !absent {
					t.Errorf("%s traced=%v: %s neither measured nor reported absent", wl, traced, m.name)
				}
				if !traced && r.values[m.name] <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", wl, m.name, r.values[m.name])
				}
			}
		}
	}
}
