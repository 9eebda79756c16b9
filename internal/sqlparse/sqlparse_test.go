package sqlparse

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNormalizeStripsLiterals(t *testing.T) {
	cases := []struct{ in, want string }{
		{"SELECT * FROM users WHERE id = 42", "select * from users where id = ?"},
		{"SELECT * FROM users WHERE name = 'Bob'", "select * from users where name = ?"},
		{"select * from t where x = 1.5e3", "select * from t where x = ?"},
		{"SELECT  *\n FROM\tt", "select * from t"},
		{"select * from t where s = 'it''s'", "select * from t where s = ?"},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNormalizeCollapsesInLists(t *testing.T) {
	a := Normalize("SELECT * FROM t WHERE id IN (1, 2, 3)")
	b := Normalize("SELECT * FROM t WHERE id IN (9)")
	if a != b {
		t.Fatalf("IN lists not collapsed: %q vs %q", a, b)
	}
	if !strings.Contains(a, "in (?)") {
		t.Fatalf("collapsed form = %q", a)
	}
}

func TestNormalizeIdentifiersWithDigits(t *testing.T) {
	got := Normalize("SELECT c1 FROM t2 WHERE c1 = 5")
	if got != "select c1 from t2 where c1 = ?" {
		t.Fatalf("got %q", got)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		sql  string
		want Class
	}{
		{"SELECT * FROM users WHERE id = 1", ClassSimpleSelect},
		{"SELECT a.x FROM a JOIN b ON a.id = b.id", ClassJoin},
		{"SELECT COUNT(*) FROM orders GROUP BY region", ClassAggregate},
		{"SELECT sum(amount) FROM orders", ClassAggregate},
		{"SELECT * FROM t ORDER BY created_at", ClassSort},
		{"INSERT INTO t VALUES (1)", ClassInsert},
		{"UPDATE t SET x = 2 WHERE id = 1", ClassUpdate},
		{"DELETE FROM t WHERE id = 1", ClassDelete},
		{"CREATE INDEX idx ON t (x)", ClassIndexDDL},
		{"DROP INDEX idx", ClassIndexDDL},
		{"CREATE TEMP TABLE scratch AS SELECT 1", ClassTempTable},
		{"CREATE TEMPORARY TABLE scratch (x INT)", ClassTempTable},
		{"ALTER TABLE t ADD COLUMN y INT", ClassAlterTable},
		{"BEGIN", ClassOther},
	}
	for _, c := range cases {
		if got := Classify(Normalize(c.sql)); got != c.want {
			t.Errorf("Classify(%q) = %v, want %v", c.sql, got, c.want)
		}
	}
}

func TestAggregateBeatsJoinAndSort(t *testing.T) {
	// A query with JOIN + GROUP BY + ORDER BY pressures work_mem most
	// through its aggregation/sort; the paper groups it with aggregates.
	sql := "SELECT b.r, COUNT(*) FROM a JOIN b ON a.id=b.id GROUP BY b.r ORDER BY 2"
	if got := Classify(Normalize(sql)); got != ClassAggregate {
		t.Fatalf("got %v, want aggregate", got)
	}
}

func TestTemplateOfStableID(t *testing.T) {
	a := TemplateOf("SELECT * FROM t WHERE id = 1")
	b := TemplateOf("select * from T where ID = 999")
	if a.ID != b.ID {
		t.Fatalf("same template, different IDs: %s vs %s", a.ID, b.ID)
	}
	c := TemplateOf("SELECT * FROM other WHERE id = 1")
	if a.ID == c.ID {
		t.Fatal("different tables collide")
	}
}

func TestClassStringsDistinct(t *testing.T) {
	seen := map[string]bool{}
	for c := Class(0); int(c) < NumClasses; c++ {
		s := c.String()
		if s == "" || seen[s] {
			t.Fatalf("class %d has empty/dup string %q", c, s)
		}
		seen[s] = true
	}
}

// Property: Normalize is idempotent.
func TestNormalizeIdempotentProperty(t *testing.T) {
	samples := []string{
		"SELECT * FROM t WHERE id = 42 AND name = 'x'",
		"UPDATE warehouse SET w_ytd = w_ytd + 312.5 WHERE w_id = 7",
		"select o_id from orders where o_c_id in (1,2,3) order by o_id",
		"CREATE INDEX i ON t(a, b)",
	}
	for _, s := range samples {
		once := Normalize(s)
		twice := Normalize(once)
		if once != twice {
			t.Fatalf("not idempotent: %q → %q → %q", s, once, twice)
		}
	}
}

// Property: TemplateOf never panics and always classifies within range
// for arbitrary byte strings.
func TestTemplateOfTotalProperty(t *testing.T) {
	f := func(s string) bool {
		tpl := TemplateOf(s)
		return int(tpl.Class) >= 0 && int(tpl.Class) < NumClasses && tpl.ID != ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeStripsComments(t *testing.T) {
	cases := []struct{ in, want string }{
		{"SELECT * FROM t -- trailing note", "select * from t"},
		{"SELECT * FROM t -- note\nWHERE id = 1", "select * from t where id = ?"},
		{"SELECT /* hint */ * FROM t", "select * from t"},
		{"SELECT * /* unterminated", "select *"},
		{"SELECT a - b FROM t", "select a - b from t"},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestCommentsDoNotSplitTemplates(t *testing.T) {
	const sa, sb = "SELECT * FROM t WHERE id = 1 -- request 77", "SELECT * FROM t WHERE id = 2 /* request 78 */"
	if TemplateOf(sa).ID != TemplateOf(sb).ID {
		t.Fatalf("comments split the template: %q vs %q", Normalize(sa), Normalize(sb))
	}
}
