package workload

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// FuzzSQLFormat checks that a compiled format renders exactly what
// fmt.Sprintf renders, for any literal text and any int64 arguments,
// under every verb compileSQL accepts.
func FuzzSQLFormat(f *testing.F) {
	f.Add("WHERE k = ", int64(0), int64(-1))
	f.Add("'", int64(math.MaxInt64), int64(math.MinInt64))
	f.Add("", int64(7), int64(-7))
	f.Add("1998-", int64(12), int64(-3))
	f.Fuzz(func(t *testing.T, lit string, x, y int64) {
		lit = strings.ReplaceAll(lit, "%", "")
		for _, format := range []string{
			lit + "%d" + lit + "%x" + lit,
			"%x" + lit + "%d",
			lit + "%02d-%05x" + lit,
			"%020d%01x",
		} {
			want := fmt.Sprintf(format, x, y)
			if got := compileSQL(format).render(x, y); got != want {
				t.Fatalf("format %q args (%d, %d): got %q, want %q", format, x, y, got, want)
			}
		}
	})
}

func TestCompileSQLRejectsOtherVerbs(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	for _, format := range []string{"%s", "a %v", "100%%", "trailing %", "%0d", "%2d", "%5.2f", "%0", "%d%d%d%d%d%d%d"} {
		mustPanic(fmt.Sprintf("compileSQL(%q)", format), func() { compileSQL(format) })
	}
	mustPanic("render with too few arguments", func() { compileSQL("a = %d AND b = %d").render(1) })
	mustPanic("with too few arguments", func() { compileSQL("a = %d AND b = %d").with(1) })
}
