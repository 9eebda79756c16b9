package sqlparse

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unicode"
)

// ---- Reference implementations -------------------------------------
//
// These are the pre-optimisation Normalize/Classify, kept verbatim so
// the allocation-free rewrites can be property-tested byte-for-byte
// against them. The hot-path pass is only sound if these agree on every
// input: templates feed fingerprints, fingerprints feed the determinism
// tests.

func refNormalize(sql string) string {
	var b strings.Builder
	b.Grow(len(sql))
	i := 0
	n := len(sql)
	lastSpace := true
	writeByte := func(c byte) {
		b.WriteByte(c)
		lastSpace = c == ' '
	}
	for i < n {
		c := sql[i]
		switch {
		case c == '-' && i+1 < n && sql[i+1] == '-':
			for i < n && sql[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && sql[i+1] == '*':
			i += 2
			for i+1 < n && !(sql[i] == '*' && sql[i+1] == '/') {
				i++
			}
			if i+1 < n {
				i += 2
			} else {
				i = n
			}
		case c == '\'' || c == '"':
			q := c
			i++
			for i < n {
				if sql[i] == q {
					if i+1 < n && sql[i+1] == q {
						i += 2
						continue
					}
					i++
					break
				}
				i++
			}
			writeByte('?')
		case c >= '0' && c <= '9':
			for i < n && (sql[i] >= '0' && sql[i] <= '9' || sql[i] == '.' || sql[i] == 'e' || sql[i] == 'E' ||
				((sql[i] == '+' || sql[i] == '-') && i > 0 && (sql[i-1] == 'e' || sql[i-1] == 'E'))) {
				i++
			}
			writeByte('?')
		case isIdentByte(c):
			start := i
			for i < n && (isIdentByte(sql[i]) || sql[i] >= '0' && sql[i] <= '9') {
				i++
			}
			word := strings.ToLower(sql[start:i])
			b.WriteString(word)
			lastSpace = false
		case unicode.IsSpace(rune(c)):
			if !lastSpace {
				writeByte(' ')
			}
			i++
		default:
			writeByte(c)
			i++
		}
	}
	out := strings.TrimSpace(b.String())
	out = refCollapseInLists(out)
	return out
}

func refCollapseInLists(s string) string {
	for {
		idx := strings.Index(s, "in (?")
		if idx < 0 {
			return s
		}
		end := idx + len("in (?")
		j := end
		for j < len(s) && (s[j] == ',' || s[j] == ' ' || s[j] == '?') {
			j++
		}
		if j < len(s) && s[j] == ')' {
			s = s[:end] + s[j:]
			next := strings.Index(s[end:], "in (?")
			if next < 0 {
				return s
			}
			s = s[:end] + refCollapseInLists(s[end:])
			return s
		}
		rest := refCollapseInLists(s[end:])
		return s[:end] + rest
	}
}

func refClassify(normalized string) Class {
	s := normalized
	if !strings.HasPrefix(s, " ") {
		s = " " + s + " "
	}
	has := func(kw string) bool { return strings.Contains(s, " "+kw+" ") }
	switch {
	case strings.Contains(s, "create index") || strings.Contains(s, "drop index"):
		return ClassIndexDDL
	case strings.Contains(s, "create temporary table") || strings.Contains(s, "create temp table"):
		return ClassTempTable
	case strings.Contains(s, "alter table"):
		return ClassAlterTable
	case has("insert"):
		return ClassInsert
	case has("update"):
		return ClassUpdate
	case has("delete"):
		return ClassDelete
	case has("select"):
		switch {
		case has("group") || refContainsAggregate(s):
			return ClassAggregate
		case has("join"):
			return ClassJoin
		case has("order"):
			return ClassSort
		default:
			return ClassSimpleSelect
		}
	default:
		return ClassOther
	}
}

func refContainsAggregate(s string) bool {
	for _, fn := range []string{"count(", "count (", "sum(", "sum (", "avg(", "avg (", "min(", "min (", "max(", "max ("} {
		if strings.Contains(s, fn) {
			return true
		}
	}
	return false
}

// ---- Corpus ---------------------------------------------------------

// equivalenceCorpus mixes realistic SQL, the parser's edge cases, and
// adversarial byte soup (high bytes, NEL/NBSP whitespace, unterminated
// literals and comments).
func equivalenceCorpus() []string {
	fixed := []string{
		"",
		"   ",
		"SELECT * FROM t WHERE id = 42",
		"select c1, c2 from orders o join lines l on o.id = l.oid where o.ts > '2021-03-23'",
		"SELECT COUNT(*) FROM t GROUP BY region HAVING COUNT(*) > 10",
		"INSERT INTO t (a, b) VALUES (1, 'x''y'), (2, \"z\")",
		"UPDATE warehouse SET w_ytd = w_ytd + 1.5e+3 WHERE w_id IN (1, 2, 3, 4)",
		"delete from session where expires < 1616457600",
		"CREATE INDEX idx_a ON t (a)",
		"create temporary table tmp_x as select 1",
		"ALTER TABLE t ADD COLUMN c INT",
		"SELECT a FROM t ORDER BY a DESC LIMIT 10",
		"-- leading comment\nSELECT 1",
		"/* block */ SELECT /* inner */ 2",
		"/* unterminated",
		"-- only a comment",
		"SELECT 'unterminated string",
		"SELECT \"unterminated ident",
		"SELECT 1e, 2E+5, 3.14.15, 9e-2",
		"x IN (?)",
		"x in (?, ?, ?) and y in (?,?) and z in (? , ?)",
		"in (?",
		"in (?, ? extra",
		"in (?)in (?, ?)",
		"sélect * from tablé where naïve = 'café'",
		"SELECTa FROM\tt\r\n",
		"min (x) from t select",
		"select max(value) from t join u on t.id=u.id order by 1",
		"select update delete insert",
		" leading space select 1",
		"a1b2c3 AB_cd9 _x",
		"5ive tables",
		"in (?????)",
		"e+5 -5 --",
		"''",
		"\"\"",
		"'''' ''''''",
	}
	rng := rand.New(rand.NewSource(7))
	verbs := []string{"SELECT", "select", "INSERT INTO", "UPDATE", "DELETE FROM", "CREATE INDEX i ON", "ALTER TABLE"}
	frags := []string{
		" * FROM tbl%d", " col%d, col%d FROM t%d", " SET a = %d", " WHERE id IN (%d, %d, %d)",
		" GROUP BY c%d", " ORDER BY c%d", " JOIN t%d ON a = b", " -- c%d", " /* %d */", " VALUES ('v%d')",
		" LIKE 'x%d%%'", " c%d", "\n\tc%d",
	}
	for i := 0; i < 400; i++ {
		var sb strings.Builder
		sb.WriteString(verbs[rng.Intn(len(verbs))])
		for k := rng.Intn(5); k >= 0; k-- {
			sb.WriteString(fmt.Sprintf(frags[rng.Intn(len(frags))], rng.Intn(1000), rng.Intn(100), rng.Intn(10)))
		}
		fixed = append(fixed, sb.String())
	}
	// Random byte soup to shake out scanner-state differences.
	for i := 0; i < 300; i++ {
		n := rng.Intn(60)
		b := make([]byte, n)
		for j := range b {
			b[j] = byte(rng.Intn(256))
		}
		fixed = append(fixed, string(b))
	}
	return fixed
}

// TestNormalizeMatchesReference pins the rewrite byte-for-byte.
func TestNormalizeMatchesReference(t *testing.T) {
	for _, sql := range equivalenceCorpus() {
		got, want := Normalize(sql), refNormalize(sql)
		if got != want {
			t.Fatalf("Normalize(%q):\n  got  %q\n  want %q", sql, got, want)
		}
	}
}

// TestClassifyMatchesReference covers both raw and normalized inputs
// (Classify is exported and the TDE calls it on normalized text).
func TestClassifyMatchesReference(t *testing.T) {
	for _, sql := range equivalenceCorpus() {
		if got, want := Classify(sql), refClassify(sql); got != want {
			t.Fatalf("Classify(%q) = %v, want %v", sql, got, want)
		}
		norm := Normalize(sql)
		if got, want := Classify(norm), refClassify(norm); got != want {
			t.Fatalf("Classify(norm %q) = %v, want %v", norm, got, want)
		}
	}
}

// TestIsSpaceByteMatchesUnicode pins the byte-level whitespace test to
// unicode.IsSpace over the full byte range, including NEL and NBSP.
func TestIsSpaceByteMatchesUnicode(t *testing.T) {
	for c := 0; c < 256; c++ {
		if got, want := isSpaceByte(byte(c)), unicode.IsSpace(rune(byte(c))); got != want {
			t.Fatalf("isSpaceByte(%#x) = %v, want %v", c, got, want)
		}
	}
}

// TestTemplateCacheTransparent proves the memo is exact: TemplateOf
// agrees with the uncached ComputeTemplate on every corpus entry, twice
// (second pass hits the cache).
func TestTemplateCacheTransparent(t *testing.T) {
	ResetTemplateCache()
	corpus := equivalenceCorpus()
	for pass := 0; pass < 2; pass++ {
		for _, sql := range corpus {
			got := TemplateOf(sql)
			want := ComputeTemplate(sql)
			if got != want {
				t.Fatalf("pass %d: TemplateOf(%q) = %+v, want %+v", pass, sql, got, want)
			}
		}
	}
}

// TestTemplateCacheEviction fills one shard far past capacity and
// checks the map never exceeds it while lookups stay correct.
func TestTemplateCacheEviction(t *testing.T) {
	ResetTemplateCache()
	total := templateCacheShards*templateCacheShardCap + 5000
	for i := 0; i < total; i++ {
		TemplateOf(fmt.Sprintf("select c%d from t where id = %d", i, i))
	}
	for i := range tplShards {
		s := &tplShards[i]
		s.mu.Lock()
		if len(s.m) > templateCacheShardCap {
			t.Fatalf("shard %d holds %d entries, cap %d", i, len(s.m), templateCacheShardCap)
		}
		if len(s.m) != len(s.ring) {
			t.Fatalf("shard %d: map %d vs ring %d out of sync", i, len(s.m), len(s.ring))
		}
		s.mu.Unlock()
	}
	// A fresh lookup after heavy eviction still computes correctly.
	sql := "select after_eviction from t where id in (1,2,3)"
	if got, want := TemplateOf(sql), ComputeTemplate(sql); got != want {
		t.Fatalf("post-eviction TemplateOf = %+v, want %+v", got, want)
	}
}

// TestTemplateOfCacheHitAllocs is the AllocsPerRun regression gate for
// the template hot path: a cache hit performs zero heap allocations.
func TestTemplateOfCacheHitAllocs(t *testing.T) {
	ResetTemplateCache()
	sql := "SELECT ol_amount FROM order_line WHERE ol_o_id = 4242 AND ol_d_id = 7"
	TemplateOf(sql) // warm
	allocs := testing.AllocsPerRun(200, func() { TemplateOf(sql) })
	if allocs > 0 {
		t.Fatalf("TemplateOf cache hit allocates %.1f objects/op, want 0", allocs)
	}
}

// TestNormalizeAllocsBounded: the rewrite allocates only the returned
// string (the scanner buffer is pooled).
func TestNormalizeAllocsBounded(t *testing.T) {
	sql := "SELECT c_first, c_last FROM customer WHERE c_w_id = 3 AND c_id IN (1, 2, 3, 4, 5)"
	allocs := testing.AllocsPerRun(200, func() { Normalize(sql) })
	if allocs > 1 {
		t.Fatalf("Normalize allocates %.1f objects/op, want <= 1", allocs)
	}
}

func FuzzNormalizeEquivalence(f *testing.F) {
	for _, sql := range equivalenceCorpus()[:40] {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		if got, want := Normalize(sql), refNormalize(sql); got != want {
			t.Fatalf("Normalize(%q):\n  got  %q\n  want %q", sql, got, want)
		}
		if got, want := Classify(sql), refClassify(sql); got != want {
			t.Fatalf("Classify(%q) = %v, want %v", sql, got, want)
		}
	})
}
