package main

import "testing"

func TestFingerprintStable(t *testing.T) {
	browse := func(seed uint64) string {
		evs, err := genBrowse(seed, catalogApps, 3000)
		if err != nil {
			t.Fatal(err)
		}
		return digestBrowse(evs, schedule(seed, len(evs), 1000))
	}
	funnel := func(seed uint64) string {
		ops := genFunnel(funnelSession(seed, 300, catalogApps))
		return digestFunnel(ops, schedule(seed, len(ops), 1000))
	}
	for name, f := range map[string]func(uint64) string{"browse": browse, "funnel": funnel} {
		if a, b := f(5), f(5); a != b {
			t.Errorf("%s: seed 5 digests %s and %s, want equal", name, a, b)
		}
		if a, b := f(5), f(6); a == b {
			t.Errorf("%s: seeds 5 and 6 share digest %s", name, a)
		}
	}
	if digestCrawl(10, 4) == digestCrawl(11, 4) {
		t.Error("crawl digest ignores the day count")
	}
}

// TestCanary pins the recorded canary digests; a failure means the
// repo's generators changed the workload (see checkCanary).
func TestCanary(t *testing.T) {
	b, f, err := canaryDigests()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("canary digests: browse=%s funnel=%s", b, f)
	if err := checkCanary(); err != nil {
		t.Fatal(err)
	}
}

func TestFunnelInputs(t *testing.T) {
	ops := genFunnel(funnelSession(3, 500, catalogApps))
	posts, retries := 0, 0
	for i, op := range ops {
		if op.kind != opDetail {
			posts++
		}
		if op.retry {
			retries++
			if prev := ops[i-1]; prev.user != op.user || prev.app != op.app || prev.kind != op.kind || prev.retry {
				t.Fatalf("retry %d does not follow its original: %+v after %+v", i, op, prev)
			}
		}
		if op.app < 0 || op.app >= catalogApps {
			t.Fatalf("op %d names app %d outside the day-0 catalog", i, op.app)
		}
	}
	if want := (posts - retries) / retryEvery; retries != want {
		t.Errorf("%d retries of %d first sends, want %d", retries, posts-retries, want)
	}
}
