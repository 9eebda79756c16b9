package workload

import (
	"fmt"
	"strconv"

	"autodbaas/internal/sqlparse"
)

// sqlFormat is a printf-style SQL format compiled once, at generator
// construction, into its literal pieces and integer verbs. render then
// builds each statement with strconv into a stack buffer: no fmt, no
// boxed arguments, and the returned string is its only allocation. The
// text is byte-identical to fmt.Sprintf of the same format and
// arguments (FuzzSQLFormat pins this).
//
// The verbs are %d and %x, optionally zero-padded to a width (%02d).
// compileSQL panics on anything else, so a bad format fails when its
// generator is built rather than when a statement is drawn.
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
	return f
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
// drawn from a bounded set — table events_<i>, column field<i> — and
// whose other verbs expand to literals. Each identifier names its own
// template; tpls[i] is the one for identifier i, derived once with
// litTpl, so the site never templates a statement at sample time.
type identSite struct {
	sql  *sqlFormat
	tpls []sqlparse.Template
}

// newIdentSite compiles format and templates each of its n identifiers.
func newIdentSite(format string, n int) identSite {
	s := identSite{sql: compileSQL(format), tpls: make([]sqlparse.Template, n)}
	canon := make([]int64, len(s.sql.verbs))
	for i := range s.tpls {
		canon[0] = int64(i)
		s.tpls[i] = litTpl(s.sql, canon...)
	}
	return s
}
