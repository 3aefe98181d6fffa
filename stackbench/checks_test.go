package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"planetapps/internal/db"
)

func TestCheckCoherent(t *testing.T) {
	ms := int64(time.Millisecond)
	// Day 3 until a roll over [100ms, 110ms] commits day 4.
	rolls := []rollObs{{start: 100 * ms, end: 110 * ms, day: 4}}
	good := []dayObs{
		{start: 10 * ms, end: 20 * ms, day: 3},
		{start: 105 * ms, end: 108 * ms, day: 4}, // mid-commit: either day
		{start: 105 * ms, end: 108 * ms, day: 3},
		{start: 200 * ms, end: 210 * ms, day: 4},
	}
	if err := checkCoherent(good, rolls, 3, 0); err != nil {
		t.Fatalf("coherent responses rejected: %v", err)
	}
	// Planted faults: a day served before it was committed, and an old
	// day served after the roll with no freshness to excuse it.
	for _, bad := range []dayObs{
		{start: 10 * ms, end: 20 * ms, day: 4},
		{start: 200 * ms, end: 210 * ms, day: 3},
	} {
		if err := checkCoherent(append(good, bad), rolls, 3, 0); err == nil {
			t.Errorf("incoherent response %+v not caught", bad)
		}
	}
	// Behind an edge, the old day stays legal while a copy may be fresh,
	// and not after.
	fresh := 2 * time.Second
	stale := dayObs{start: 200 * ms, end: 210 * ms, day: 3}
	if err := checkCoherent([]dayObs{stale}, rolls, 3, fresh); err != nil {
		t.Errorf("fresh edge copy rejected: %v", err)
	}
	stale.start, stale.end = 3000*ms, 3010*ms
	if err := checkCoherent([]dayObs{stale}, rolls, 3, fresh); err == nil {
		t.Error("edge copy served past its freshness not caught")
	}
}

func TestSameBody(t *testing.T) {
	want := []byte(`{"id":7,"downloads":12}`)
	if err := sameBody(7, append([]byte(nil), want...), 3, want, 3); err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), want...)
	flipped[len(flipped)-2] = '3'
	if sameBody(7, flipped, 3, want, 3) == nil {
		t.Error("altered body not caught")
	}
	if sameBody(7, want, 2, want, 3) == nil {
		t.Error("body from another day not caught")
	}
}

func TestCheckDrained(t *testing.T) {
	if err := checkDrained(10, 10, 0); err != nil {
		t.Fatal(err)
	}
	if checkDrained(10, 9, 0) == nil {
		t.Error("acknowledged write lost before the merge not caught")
	}
	if checkDrained(10, 10, 1) == nil {
		t.Error("write left pending after the drain not caught")
	}
}

func TestCompareDownloads(t *testing.T) {
	ref := func(id int32) int64 { return int64(id) * 100 }
	served := map[int32]int64{1: 100, 2: 203, 3: 300}
	acked := map[int32]int64{2: 3}
	if err := compareDownloads(served, ref, acked); err != nil {
		t.Fatal(err)
	}
	lost := map[int32]int64{1: 100, 2: 202, 3: 300}
	if compareDownloads(lost, ref, acked) == nil {
		t.Error("lost acknowledged install not caught")
	}
	phantom := map[int32]int64{1: 101, 2: 203, 3: 300}
	if compareDownloads(phantom, ref, acked) == nil {
		t.Error("unacknowledged install not caught")
	}
	if compareDownloads(map[int32]int64{1: 100}, ref, acked) == nil {
		t.Error("unchecked app with acknowledged installs not caught")
	}
}

func TestSameDB(t *testing.T) {
	build := func(rating int8) *db.DB {
		d := db.New()
		d.UpsertApp(db.AppRecord{ID: 1, Name: "a"}, db.DailyStat{Day: 0, Downloads: 5})
		d.AddComment(db.CommentRecord{App: 1, User: 2, Rating: rating, UnixTime: 9})
		d.AddComment(db.CommentRecord{App: 1, User: 1, Rating: 4, UnixTime: 8})
		return d
	}
	if err := sameDB(build(5), build(5)); err != nil {
		t.Fatal(err)
	}
	if sameDB(build(5), build(3)) == nil {
		t.Error("differing comment not caught")
	}
}

func TestCheckPeriod(t *testing.T) {
	if err := checkPeriod(10, 9); err != nil {
		t.Fatal(err)
	}
	if err := checkPeriod(10, 10); err == nil || !strings.Contains(err.Error(), "10 day-rolls") {
		t.Errorf("run outliving its market not refused: %v", err)
	}
}

// TestBenchmarkJSON keeps the metric lists the program prints in step
// with the ones BENCHMARK.json declares.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside this directory")
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: program %s/%s, BENCHMARK.json %s/%s", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
}
