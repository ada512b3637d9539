package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// checkRows validates the structural contract every experiment shares:
// at least one row, aligned columns/values, finite values.
func checkRows(t *testing.T, rows []Row) {
	t.Helper()
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for i, r := range rows {
		if len(r.Columns) == 0 || len(r.Columns) != len(r.Values) {
			t.Fatalf("row %d: %d columns vs %d values", i, len(r.Columns), len(r.Values))
		}
		for j, v := range r.Values {
			if v != v { // NaN
				t.Fatalf("row %d col %s is NaN", i, r.Columns[j])
			}
		}
		if r.Label == "" {
			t.Fatalf("row %d has no label", i)
		}
	}
}

func TestRowFormat(t *testing.T) {
	r := Row{Label: "x", Columns: []string{"a", "b"}, Values: []float64{1, 0.5}}
	s := r.Format()
	if !strings.Contains(s, "a=1") || !strings.Contains(s, "b=0.5") {
		t.Errorf("Format = %q", s)
	}
}

func TestE1Shape(t *testing.T) {
	rows := E1RankClusCaseStudy(1)
	checkRows(t, rows)
	// NMI and coherence are probabilities.
	for i, v := range rows[0].Values {
		if v < 0 || v > 1 {
			t.Errorf("metric %s = %v out of [0,1]", rows[0].Columns[i], v)
		}
	}
}

func TestE3ScaleMonotoneSimRank(t *testing.T) {
	rows := E3Scale(1, []int{50, 150})
	checkRows(t, rows)
	// SimRank time must grow superlinearly with the attribute side.
	if rows[1].Values[1] <= rows[0].Values[1] {
		t.Errorf("SimRank cost should grow: %v vs %v", rows[0].Values[1], rows[1].Values[1])
	}
}

func TestE6Shape(t *testing.T) {
	rows := E6PageRankHITS(1, 500)
	checkRows(t, rows)
	if rows[0].Values[0] <= 0 || rows[0].Values[1] <= 0 {
		t.Error("iteration counts must be positive")
	}
}

// TestNetworkExperimentsReproducible: E6 and E9 grow their graphs from
// the seed alone, so two calls print the same rows.
func TestNetworkExperimentsReproducible(t *testing.T) {
	for _, e := range []struct {
		name string
		run  func() []Row
	}{
		{"E6", func() []Row { return E6PageRankHITS(1, 3000) }},
		{"E9", func() []Row { return E9NetStats(1) }},
	} {
		if a, b := e.run(), e.run(); !reflect.DeepEqual(a, b) {
			t.Errorf("%s differs between two calls at one seed:\n%v\n%v", e.name, a, b)
		}
	}
}

func TestE7Shape(t *testing.T) {
	rows := E7SimRank(1)
	checkRows(t, rows)
	for i, v := range rows[0].Values {
		if v < 0 || v > 1 {
			t.Errorf("%s = %v out of [0,1]", rows[0].Columns[i], v)
		}
	}
}

func TestE10CopyDetectionHelps(t *testing.T) {
	rows := E10TruthFinder(1)
	checkRows(t, rows)
	last := rows[len(rows)-1]
	// TF+copydetect (col 2) must beat plain TF (col 0) under copycats.
	if last.Values[2] <= last.Values[0] {
		t.Errorf("copy detection should help: %v vs %v", last.Values[2], last.Values[0])
	}
}

func TestE11DistinctBeatsBaselines(t *testing.T) {
	rows := E11Distinct(1)
	checkRows(t, rows)
	v := rows[0].Values
	if v[0] <= v[1] || v[0] <= v[2] {
		t.Errorf("DISTINCT %v should beat merge %v and split %v", v[0], v[1], v[2])
	}
}

func TestE12PathSimWins(t *testing.T) {
	rows := E12PathSim(1)
	checkRows(t, rows)
	v := rows[0].Values
	if v[0] <= v[1] {
		t.Errorf("PathSim %v should beat PPR %v on peer search", v[0], v[1])
	}
}

func TestE13CrossMineWins(t *testing.T) {
	rows := E13CrossMine(1)
	checkRows(t, rows)
	v := rows[0].Values
	if v[0] <= v[1] {
		t.Errorf("CrossMine %v should beat 1R %v", v[0], v[1])
	}
}

func TestE14GuidedBeatsGuidanceOnly(t *testing.T) {
	rows := E14CrossClus(1)
	checkRows(t, rows)
	v := rows[0].Values
	if v[0] <= v[1] {
		t.Errorf("CrossClus %v should beat guidance-only %v", v[0], v[1])
	}
}

func TestE15MassConserved(t *testing.T) {
	rows := E15OLAP(1)
	checkRows(t, rows)
	if rows[0].Values[3] != 1 {
		t.Error("cube mass not conserved")
	}
}

func TestE16PropagationBeatsMajority(t *testing.T) {
	rows := E16Classify(1)
	checkRows(t, rows)
	for _, r := range rows {
		if r.Values[0] <= r.Values[2] {
			t.Errorf("%s: typed %v should beat majority %v", r.Label, r.Values[0], r.Values[2])
		}
	}
}

func TestAblationsShape(t *testing.T) {
	checkRows(t, AblationLinkClus(1))
	checkRows(t, AblationRankClusSmoothing(1))
	checkRows(t, AblationSCANEpsilon(1))
}
