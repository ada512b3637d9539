package relational

import (
	"testing"

	"hinet/internal/hin"
	"hinet/internal/stats"
)

func sampleDB() *DB {
	db := NewDB()
	db.CreateTable(Schema{Name: "dept", Columns: []Column{
		{Name: "name", Type: StringCol},
	}})
	db.CreateTable(Schema{Name: "emp", Columns: []Column{
		{Name: "name", Type: StringCol},
		{Name: "dept_id", Type: IntCol, FK: "dept"},
		{Name: "salary", Type: FloatCol},
	}})
	d0 := db.Insert("dept", Tuple{"eng"})
	d1 := db.Insert("dept", Tuple{"sales"})
	db.Insert("emp", Tuple{"ann", d0, 100.0})
	db.Insert("emp", Tuple{"bob", d0, 90.0})
	db.Insert("emp", Tuple{"cat", d1, 80.0})
	return db
}

func TestCreateAndInsert(t *testing.T) {
	db := sampleDB()
	if len(db.Table("emp").Rows) != 3 || len(db.Table("dept").Rows) != 2 {
		t.Fatal("row counts wrong")
	}
	if got := db.Tables(); len(got) != 2 || got[0] != "dept" {
		t.Errorf("Tables = %v", got)
	}
}

func TestInsertValidation(t *testing.T) {
	db := sampleDB()
	cases := map[string]func(){
		"arity":    func() { db.Insert("emp", Tuple{"x"}) },
		"type":     func() { db.Insert("emp", Tuple{"x", "notint", 1.0}) },
		"fk range": func() { db.Insert("emp", Tuple{"x", 99, 1.0}) },
		"unknown":  func() { db.Insert("nope", Tuple{}) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			f()
		}()
	}
}

func TestCreateTableValidation(t *testing.T) {
	db := NewDB()
	defer func() {
		if recover() == nil {
			t.Error("unknown FK target should panic")
		}
	}()
	db.CreateTable(Schema{Name: "x", Columns: []Column{{Name: "r", Type: IntCol, FK: "ghost"}}})
}

func TestSelect(t *testing.T) {
	db := sampleDB()
	rich := db.Select("emp", func(r Tuple) bool { return r[2].(float64) >= 90 })
	if len(rich) != 2 || rich[0] != 0 || rich[1] != 1 {
		t.Errorf("Select = %v", rich)
	}
}

func TestPropagateForward(t *testing.T) {
	db := sampleDB()
	ids := InitIDs(db.Table("emp"))
	// emp → dept: dept 0 should carry targets {0,1}, dept 1 {2}.
	out := db.PropagateForward(JoinEdge{Table: "emp", Column: "dept_id"}, ids)
	if got := TargetsOf(out, 0); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("dept0 targets = %v", got)
	}
	if got := TargetsOf(out, 1); len(got) != 1 || got[0] != 2 {
		t.Errorf("dept1 targets = %v", got)
	}
}

func TestPropagateBackward(t *testing.T) {
	db := sampleDB()
	ids := InitIDs(db.Table("dept"))
	// dept → emp: each emp carries its department id.
	out := db.PropagateBackward(JoinEdge{Table: "emp", Column: "dept_id"}, ids)
	if got := TargetsOf(out, 0); len(got) != 1 || got[0] != 0 {
		t.Errorf("emp0 targets = %v", got)
	}
	if got := TargetsOf(out, 2); len(got) != 1 || got[0] != 1 {
		t.Errorf("emp2 targets = %v", got)
	}
}

func TestPropagationRoundTripMultiplicity(t *testing.T) {
	// emp→dept then dept→emp: each emp ends with the ids of everyone in
	// its department (join multiset semantics).
	db := sampleDB()
	fwd := db.PropagateForward(JoinEdge{Table: "emp", Column: "dept_id"}, InitIDs(db.Table("emp")))
	back := db.PropagateBackward(JoinEdge{Table: "emp", Column: "dept_id"}, fwd)
	if got := TargetsOf(back, 0); len(got) != 2 {
		t.Errorf("emp0 round-trip targets = %v, want dept-mates {0,1}", got)
	}
	if got := TargetsOf(back, 2); len(got) != 1 || got[0] != 2 {
		t.Errorf("emp2 round-trip targets = %v", got)
	}
}

func TestPropagateValidation(t *testing.T) {
	db := sampleDB()
	defer func() {
		if recover() == nil {
			t.Error("non-FK propagation should panic")
		}
	}()
	db.PropagateForward(JoinEdge{Table: "emp", Column: "name"}, InitIDs(db.Table("emp")))
}

func TestNetworkConversion(t *testing.T) {
	db := sampleDB()
	n := db.Network(NetworkOptions{CategoricalAsObjects: []string{"dept.name"}})
	if n.Count("emp") != 3 || n.Count("dept") != 2 {
		t.Fatal("object counts wrong")
	}
	// FK links: 3 emp→dept links.
	if m := n.Relation("emp", "dept"); m.NNZ() != 3 || m.Sum() != 3 {
		t.Errorf("emp-dept: %d entries weighing %v, want 3 links", m.NNZ(), m.Sum())
	}
	// Value objects for dept.name.
	if n.Count(hin.Type("dept.name")) != 2 {
		t.Errorf("value objects = %d", n.Count(hin.Type("dept.name")))
	}
	if n.Lookup(hin.Type("dept.name"), "eng") < 0 {
		t.Error("value object 'eng' missing")
	}
}

func TestNetworkSkipsUnlistedCategoricals(t *testing.T) {
	db := sampleDB()
	n := db.Network(NetworkOptions{})
	if n.Count(hin.Type("dept.name")) != 0 {
		t.Error("unlisted categorical should not become objects")
	}
}

func TestSyntheticCustomersShape(t *testing.T) {
	s := SyntheticCustomers(stats.NewRNG(1), SynthConfig{Customers: 100, Branches: 10, TransPerCus: 2})
	if len(s.DB.Table("customer").Rows) != 100 {
		t.Fatal("customer count wrong")
	}
	if len(s.DB.Table("transaction").Rows) != 200 {
		t.Fatal("transaction count wrong")
	}
	if len(s.Class) != 100 || len(s.Group) != 100 {
		t.Fatal("truth sizes wrong")
	}
	// Class roughly balanced (rule designed for ~50%).
	ones := 0
	for _, c := range s.Class {
		ones += c
	}
	if ones < 30 || ones > 70 {
		t.Errorf("class balance = %d/100", ones)
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a := SyntheticCustomers(stats.NewRNG(2), SynthConfig{})
	b := SyntheticCustomers(stats.NewRNG(2), SynthConfig{})
	for i := range a.Class {
		if a.Class[i] != b.Class[i] || a.Group[i] != b.Group[i] {
			t.Fatal("same-seed synthetic differs")
		}
	}
}

func TestSyntheticGroupDrivesTransactions(t *testing.T) {
	s := SyntheticCustomers(stats.NewRNG(3), SynthConfig{Customers: 200})
	// Group-0 customers should have mostly credit transactions.
	trans := s.DB.Table("transaction")
	match, total := 0, 0
	for _, row := range trans.Rows {
		cust := row[0].(int)
		kind := row[1].(string)
		total++
		if synthKinds[s.Group[cust]] == kind {
			match++
		}
	}
	if frac := float64(match) / float64(total); frac < 0.8 {
		t.Errorf("kind-group coherence = %.2f", frac)
	}
}
