package workload

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"autodbaas/internal/sqlparse"
)

// sqlFormat is a printf-style SQL format compiled once, at generator
// construction, into its literal pieces and integer verbs. A sampled
// statement keeps the format and its drawn arguments (a stmt) and
// renders nothing; render builds the text, when a reader asks for it,
// with strconv into a stack buffer: no fmt, no boxed arguments, and the
// returned string is its only allocation. The text is byte-identical to
// fmt.Sprintf of the same format and arguments (FuzzSQLFormat pins
// this). A format is never modified after compileSQL, so the statements
// of concurrent windows share it freely.
//
// The verbs are %d and %x, optionally zero-padded to a width (%02d), at
// most maxSQLArgs of them. compileSQL panics on anything else, so a bad
// format fails when its generator is built rather than when a statement
// is drawn.
type sqlFormat struct {
	lits  []string // len(verbs)+1 literal pieces around the verbs
	verbs []sqlVerb
}

// sqlVerb is one integer verb: its base and zero-padded width.
type sqlVerb struct {
	base  int // 10 for %d, 16 for %x
	width int // minimum digits incl. sign, zero-padded; 0 for none
}

// sqlBufLen is the stack buffer render builds into; longer statements
// still render correctly, at the cost of one extra allocation.
const sqlBufLen = 320

// maxSQLArgs bounds a format's verbs: a stmt holds its arguments inline.
const maxSQLArgs = 6

// stmt is one drawn statement: its compiled format and the arguments
// drawn for its verbs (the first len(f.verbs) of args). The zero stmt
// carries no format.
type stmt struct {
	f    *sqlFormat
	args [maxSQLArgs]int64
}

func compileSQL(format string) *sqlFormat {
	f := &sqlFormat{}
	lit := 0
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		f.lits = append(f.lits, format[lit:i])
		j := i + 1
		var v sqlVerb
		if j < len(format) && format[j] == '0' {
			for j++; j < len(format) && '0' <= format[j] && format[j] <= '9'; j++ {
				v.width = v.width*10 + int(format[j]-'0')
			}
			if v.width == 0 {
				panic(fmt.Sprintf("workload: SQL format %q: zero flag without a width at offset %d", format, i))
			}
		}
		switch {
		case j < len(format) && format[j] == 'd':
			v.base = 10
		case j < len(format) && format[j] == 'x':
			v.base = 16
		default:
			panic(fmt.Sprintf("workload: SQL format %q: unsupported verb at offset %d (want %%d, %%x or %%0Nd)", format, i))
		}
		f.verbs = append(f.verbs, v)
		i = j
		lit = j + 1
	}
	f.lits = append(f.lits, format[lit:])
	if len(f.verbs) > maxSQLArgs {
		panic(fmt.Sprintf("workload: SQL format %q has %d verbs, more than %d", format, len(f.verbs), maxSQLArgs))
	}
	return f
}

// with binds args (one per verb) to the format without rendering it.
func (f *sqlFormat) with(args ...int64) stmt {
	if len(args) != len(f.verbs) {
		panic(fmt.Sprintf("workload: SQL format wants %d arguments, got %d", len(f.verbs), len(args)))
	}
	s := stmt{f: f}
	copy(s.args[:], args)
	return s
}

// render formats args (one per verb) into a statement.
func (f *sqlFormat) render(args ...int64) string {
	if len(args) != len(f.verbs) {
		panic(fmt.Sprintf("workload: SQL format wants %d arguments, got %d", len(f.verbs), len(args)))
	}
	var buf [sqlBufLen]byte
	b := append(buf[:0], f.lits[0]...)
	for i, v := range f.verbs {
		b = v.append(b, args[i])
		b = append(b, f.lits[i+1]...)
	}
	return string(b)
}

// append formats x onto b the way fmt does: a zero-padded width counts
// the sign, and the zeros go between the sign and the digits.
func (v sqlVerb) append(b []byte, x int64) []byte {
	var tmp [20]byte // fits math.MinInt64 in base 10
	digits := strconv.AppendInt(tmp[:0], x, v.base)
	pad := v.width - len(digits)
	if x < 0 {
		b, digits = append(b, '-'), digits[1:]
	}
	for ; pad > 0; pad-- {
		b = append(b, '0')
	}
	return append(b, digits...)
}

// identSite is a call site whose first verb interpolates an identifier
// drawn from a bounded set — table events_<i>, column field<i>, index
// idx_adult_<i> — and whose other verbs expand to literals. Each
// identifier names its own template. tpl fills identifier i's slot on
// first use, from the text with every other verb at 0, and templates it
// without the template cache; neither setup nor a later draw of i
// templates anything.
type identSite struct {
	sql  *sqlFormat
	tpls []atomic.Pointer[sqlparse.Template]
}

// newIdentSite compiles format for n identifiers; it templates none.
func newIdentSite(format string, n int) identSite {
	return identSite{sql: compileSQL(format), tpls: make([]atomic.Pointer[sqlparse.Template], n)}
}

// fill sets q to the site's statement with args drawn for its verbs,
// the first of them the identifier.
func (s identSite) fill(q *Query, args ...int64) { q.set(s.tpl(args[0]), s.sql, args...) }

// tpl returns identifier i's template. Concurrent first draws of i may
// each compute it; they store equal values.
func (s identSite) tpl(i int64) sqlparse.Template {
	if t := s.tpls[i].Load(); t != nil {
		return *t
	}
	var canon [maxSQLArgs]int64
	canon[0] = i
	t := sqlparse.ComputeTemplate(s.sql.render(canon[:len(s.sql.verbs)]...))
	s.tpls[i].Store(&t)
	return t
}
