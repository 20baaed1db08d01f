package sched

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/classify"
	"repro/internal/profile"
	"repro/internal/testkit"
)

// TestSnapshotRestoreRoundTrip checks the persistence contract the
// experiments suite relies on: a snapshot survives a JSON round trip
// and, restored into a fresh scheduler, reproduces the same executions
// without resimulating.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	cfg := testkit.Config()
	a := New(cfg, profile.New(cfg), flatMatrix())
	q := miniQueue()
	rep, err := a.Run(q, 2, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	snap := a.SnapshotGroups()
	if len(snap) == 0 {
		t.Fatal("no memoized groups after a run")
	}

	// Persistence path: the suite stores snapshots as JSON.
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]GroupReport
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, decoded) {
		t.Fatalf("JSON round trip changed the snapshot:\n%+v\nvs\n%+v", snap, decoded)
	}

	// A fresh scheduler seeded with the snapshot must serve the same
	// executions the original scheduler produced.
	b := New(cfg, nil, flatMatrix())
	b.RestoreGroups(decoded)
	if got := b.SnapshotGroups(); !reflect.DeepEqual(snap, got) {
		t.Fatalf("restore + snapshot is not the identity:\n%+v\nvs\n%+v", snap, got)
	}
	groups, err := b.formGroups(q, 2, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for i, g := range groups {
		gr, err := b.RunGroup(g, FCFS)
		if err != nil {
			t.Fatalf("group %d not served from restored memo: %v", i, err)
		}
		if !reflect.DeepEqual(gr, rep.Groups[i]) {
			t.Fatalf("group %d differs from original execution:\n%+v\nvs\n%+v", i, gr, rep.Groups[i])
		}
		total += gr.Cycles
	}
	if total != rep.TotalCycles {
		t.Fatalf("restored total %d, original %d", total, rep.TotalCycles)
	}
}

// TestGroupReportClassesJSON locks the group-memo format: a report's
// classes persist as an array of numbers. A Class of an unsigned byte
// kind would marshal as a base64 string, which still round-trips (so
// TestSnapshotRestoreRoundTrip cannot see it) but changes every memo
// file on disk.
func TestGroupReportClassesJSON(t *testing.T) {
	data, err := json.Marshal(GroupReport{Classes: classify.All()})
	if err != nil {
		t.Fatal(err)
	}
	if want := `"Classes":[0,1,2,3]`; !strings.Contains(string(data), want) {
		t.Fatalf("GroupReport JSON %s, want it to contain %s", data, want)
	}
}

// TestSnapshotIsACopy guards against callers mutating the scheduler's
// internal memo through a snapshot.
func TestSnapshotIsACopy(t *testing.T) {
	s := newScheduler()
	if _, err := s.Run(miniQueue()[:2], 2, FCFS); err != nil {
		t.Fatal(err)
	}
	snap := s.SnapshotGroups()
	for k := range snap {
		delete(snap, k)
	}
	if len(s.SnapshotGroups()) == 0 {
		t.Fatal("deleting from a snapshot drained the scheduler's memo")
	}
}
