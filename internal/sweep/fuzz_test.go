package sweep

import (
	"encoding/json"
	"reflect"
	"testing"
)

// fuzzCellCap bounds the grids the fuzzer will expand: the axis cross
// product grows multiplicatively, and the fuzzer will happily invent
// grids with thousands of entries per axis. Oversized grids are still
// parsed (ParseGrid must not panic) but not expanded.
const fuzzCellCap = 4096

// gridCells is the expansion size before Expand materializes it.
func gridCells(g Grid) int {
	n := 1
	for _, axis := range [][]string{
		g.Policies, g.Engines, g.Rosters, g.Arrivals,
		g.SLOs, g.Admissions, g.Autoscales,
	} {
		if len(axis) > 0 {
			n *= len(axis)
		}
		if n > fuzzCellCap {
			return n
		}
	}
	return n
}

// FuzzGridJSON drives cmd/sweep's -config path: arbitrary bytes go
// through ParseGrid and the grid is expanded. Neither step may panic,
// and any grid that expands must do so deterministically — a JSON
// round-trip of the grid re-expands to identical cells, each carrying
// exactly ParamColumns parameters.
func FuzzGridJSON(f *testing.F) {
	seeds := []Grid{
		{},
		smokeGrid(),
		{
			Policies: []string{"fcfs", "ilp-smra"}, Engines: []string{"modeled"},
			Rosters: []string{"2"}, Arrivals: []string{"closed"},
			Admissions: []string{"off", "reject:25000"}, Autoscales: []string{"off", "1:4"},
			Clients: 12, Requests: 4, Think: 5000,
			Timeout: 60000, Retries: 1, Deadline: 60000, Seed: 7,
		},
	}
	for _, g := range seeds {
		data, err := json.Marshal(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"policies":["nope"]}`))
	f.Add([]byte(`{"shards":[0]}`))
	f.Add([]byte(`{"shards":[4],"engines":["cycle"]}`))
	f.Add([]byte(`{"arrivals":["trace"]}`))
	f.Add([]byte(`{"rosters":[""]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"jobs":-1,"rate":-0.5,"seed":18446744073709551615}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ParseGrid(data)
		if err != nil {
			return
		}
		if gridCells(g) > fuzzCellCap {
			return
		}
		cells, err := g.Expand()
		if err != nil {
			return
		}
		if len(cells) == 0 {
			t.Fatalf("grid %s expanded to no cells without error", data)
		}
		for i, c := range cells {
			if len(c.Params()) != len(ParamColumns) {
				t.Fatalf("grid %s cell %d: %d params, want %d", data, i, len(c.Params()), len(ParamColumns))
			}
		}
		// Round-trip: the grid survives JSON and re-expands identically.
		again, err := json.Marshal(g)
		if err != nil {
			t.Fatalf("grid %s does not re-marshal: %v", data, err)
		}
		g2, err := ParseGrid(again)
		if err != nil {
			t.Fatalf("grid %s JSON round-trip does not parse: %v", again, err)
		}
		cells2, err := g2.Expand()
		if err != nil {
			t.Fatalf("grid %s JSON round-trip does not expand: %v", again, err)
		}
		if len(cells) != len(cells2) {
			t.Fatalf("grid %s round-trip: %d cells, want %d", again, len(cells2), len(cells))
		}
		for i := range cells {
			if !reflect.DeepEqual(cells[i].Params(), cells2[i].Params()) {
				t.Fatalf("grid %s round-trip cell %d: %v, want %v", again, i, cells2[i].Params(), cells[i].Params())
			}
		}
	})
}
