// Package sqlparse turns raw SQL log lines into parameter-free templates
// and coarse query classes. The Throttling Detection Engine uses it to
// reduce the production query stream to a manageable pool of templates
// (which are then reservoir-sampled) and to group queries into the
// classes whose frequencies feed the entropy filter — the approach the
// paper adopts from query-based workload forecasting.
//
// This is not a full SQL parser: it is a tokenizer with the recognition
// power the TDE needs (statement verb, clause markers, literal
// stripping), which matches how production log-templating tools work.
//
// Generators template each call site once, and the engine logs the
// template a statement carries, so no fleet window templates text. The
// paths that do (trace loading, the entropy figure) get an
// allocation-free Normalize and Classify, and TemplateOf is memoised
// behind a sharded FIFO cache (see template_cache.go).
package sqlparse

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"sync"
)

// Class is a coarse query category used for entropy histograms and
// throttle attribution.
type Class int

// Query classes. The groupings follow section 3.1 of the paper: classes
// are defined by which knob class their execution pressures.
const (
	ClassSimpleSelect Class = iota // point/range reads, no heavy memory use
	ClassJoin                      // multi-table joins (work_mem / join_buffer)
	ClassAggregate                 // GROUP BY / aggregate functions (work_mem)
	ClassSort                      // ORDER BY without aggregation (work_mem / sort_buffer)
	ClassInsert                    // writes (WAL / bgwriter pressure)
	ClassUpdate                    // writes (WAL / bgwriter pressure)
	ClassDelete                    // deletes (maintenance_work_mem via vacuum)
	ClassIndexDDL                  // CREATE/DROP INDEX (maintenance_work_mem)
	ClassTempTable                 // CREATE TEMP TABLE ... (temp_buffers)
	ClassAlterTable                // ALTER TABLE (maintenance_work_mem)
	ClassOther
)

// NumClasses is the number of distinct query classes.
const NumClasses = int(ClassOther) + 1

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassSimpleSelect:
		return "select"
	case ClassJoin:
		return "join"
	case ClassAggregate:
		return "aggregate"
	case ClassSort:
		return "sort"
	case ClassInsert:
		return "insert"
	case ClassUpdate:
		return "update"
	case ClassDelete:
		return "delete"
	case ClassIndexDDL:
		return "index-ddl"
	case ClassTempTable:
		return "temp-table"
	case ClassAlterTable:
		return "alter-table"
	default:
		return "other"
	}
}

// Template is a normalized, parameter-free query shape: the hash of
// Normalize's text, and its class.
type Template struct {
	ID    string // stable hash of the normalized text
	Class Class
}

// normBufs pools the scratch byte buffers Normalize scans into, so the
// only allocation per call is the returned string itself.
var normBufs = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// Normalize strips literals and whitespace variance from a SQL string:
// numbers and quoted strings become '?', identifiers are lower-cased,
// runs of whitespace collapse, and IN-lists collapse to a single '?'.
func Normalize(sql string) string {
	bp := normBufs.Get().(*[]byte)
	b := (*bp)[:0]
	i := 0
	n := len(sql)
	lastSpace := true
	for i < n {
		c := sql[i]
		switch {
		case c == '-' && i+1 < n && sql[i+1] == '-':
			// Line comment: skip to end of line.
			for i < n && sql[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && sql[i+1] == '*':
			// Block comment: skip to the closing marker.
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
			// Quoted literal: skip to the closing quote (handling '' escapes).
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
			b = append(b, '?')
			lastSpace = false
		case c >= '0' && c <= '9':
			// Numeric literal (only when not part of an identifier).
			for i < n && (sql[i] >= '0' && sql[i] <= '9' || sql[i] == '.' || sql[i] == 'e' || sql[i] == 'E' ||
				((sql[i] == '+' || sql[i] == '-') && i > 0 && (sql[i-1] == 'e' || sql[i-1] == 'E'))) {
				i++
			}
			b = append(b, '?')
			lastSpace = false
		case isIdentByte(c):
			for i < n && (isIdentByte(sql[i]) || sql[i] >= '0' && sql[i] <= '9') {
				ch := sql[i]
				if ch >= 'A' && ch <= 'Z' {
					ch += 'a' - 'A'
				}
				b = append(b, ch)
				i++
			}
			lastSpace = false
		case isSpaceByte(c):
			if !lastSpace {
				b = append(b, ' ')
				lastSpace = true
			}
			i++
		default:
			b = append(b, c)
			lastSpace = c == ' '
			i++
		}
	}
	t := bytes.TrimSpace(b)
	t = collapseInLists(t)
	out := string(t)
	*bp = b
	normBufs.Put(bp)
	return out
}

func isIdentByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

// isSpaceByte mirrors unicode.IsSpace(rune(c)) for single bytes: the
// ASCII whitespace set plus NEL (U+0085) and NBSP (U+00A0), which are
// space runes in the Latin-1 range.
func isSpaceByte(c byte) bool {
	switch c {
	case '\t', '\n', '\v', '\f', '\r', ' ', 0x85, 0xA0:
		return true
	}
	return false
}

var inListPat = []byte("in (?")

// collapseInLists rewrites "in (?, ?, ?)" (any arity) as "in (?)" so
// IN-list size does not explode the template space. It edits s in place
// (the slice only ever shrinks) and returns the shortened slice.
func collapseInLists(s []byte) []byte {
	from := 0
	for {
		idx := bytes.Index(s[from:], inListPat)
		if idx < 0 {
			return s
		}
		end := from + idx + len(inListPat)
		j := end
		for j < len(s) && (s[j] == ',' || s[j] == ' ' || s[j] == '?') {
			j++
		}
		if j < len(s) && s[j] == ')' {
			s = append(s[:end], s[j:]...)
		}
		// Continue after this occurrence (collapsed or not) to avoid
		// re-matching the already-collapsed "in (?)".
		from = end
	}
}

// Classify infers the query class from normalized SQL text.
func Classify(normalized string) Class {
	s := normalized
	// Historically Classify matched keywords against " "+s+" "; padding
	// is virtual now (word-boundary checks at the string ends) so the
	// call is allocation-free.
	padded := !strings.HasPrefix(s, " ")
	has := func(kw string) bool { return hasWord(s, kw, padded) }
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
		case has("group") || containsAggregate(s):
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

// hasWord reports whether kw occurs in s delimited by spaces; when
// padded is true the string ends count as boundaries (equivalent to
// strings.Contains(" "+s+" ", " "+kw+" ") without building the strings).
func hasWord(s, kw string, padded bool) bool {
	from := 0
	for {
		i := strings.Index(s[from:], kw)
		if i < 0 {
			return false
		}
		i += from
		e := i + len(kw)
		leftOK := i == 0 && padded || i > 0 && s[i-1] == ' '
		rightOK := e == len(s) && padded || e < len(s) && s[e] == ' '
		if leftOK && rightOK {
			return true
		}
		from = i + 1
	}
}

var aggregateFns = []string{"count(", "count (", "sum(", "sum (", "avg(", "avg (", "min(", "min (", "max(", "max ("}

func containsAggregate(s string) bool {
	for _, fn := range aggregateFns {
		if strings.Contains(s, fn) {
			return true
		}
	}
	return false
}

// TemplateOf normalizes, classifies and fingerprints a raw SQL string.
// Results are memoised in a process-wide FIFO cache keyed by the raw
// text, so re-templating a repeated string (trace replay, a generator's
// canonical text) costs a map lookup. The cache is an exact memo of a
// pure function: it never changes the returned Template.
func TemplateOf(sql string) Template {
	if tpl, ok := templateCacheGet(sql); ok {
		return tpl
	}
	tpl := ComputeTemplate(sql)
	templateCachePut(sql, tpl)
	return tpl
}

// ComputeTemplate is TemplateOf without the cache: it neither reads nor
// fills it. Callers that keep their own templates (a generator's
// identifier sites) use it.
func ComputeTemplate(sql string) Template {
	norm := Normalize(sql)
	sum := sha256.Sum256([]byte(norm))
	return Template{
		ID:    hex.EncodeToString(sum[:8]),
		Class: Classify(norm),
	}
}
