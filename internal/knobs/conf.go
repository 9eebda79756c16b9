package knobs

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// RenderConf renders a configuration in the engine's native config-file
// syntax — postgresql.conf for PostgreSQL, a [mysqld] section for MySQL.
// Byte-valued knobs are printed with the largest exact binary unit and
// millisecond knobs in whole seconds where exact, so every value is
// printed without loss. Knobs are ordered by class then catalogue
// order, with class headers, the way a DBA-maintained file would read.
func (c *Catalog) RenderConf(cfg Config) string {
	var b strings.Builder
	if c.Engine == MySQL {
		b.WriteString("[mysqld]\n")
	}
	for _, cls := range Classes() {
		names := c.NamesByClass(cls)
		var lines []string
		for _, n := range names {
			v, ok := cfg[n]
			if !ok {
				continue
			}
			lines = append(lines, fmt.Sprintf("%s = %s", n, c.defs[n].formatValue(v)))
		}
		if len(lines) == 0 {
			continue
		}
		fmt.Fprintf(&b, "# %s knobs\n", cls)
		for _, l := range lines {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// formatValue renders a knob value with engine-file conventions.
func (d *Def) formatValue(v float64) string {
	switch d.Unit {
	case Bytes:
		return formatBytes(v)
	case Milliseconds:
		if v >= 1000 && math.Mod(v, 1000) == 0 {
			return fmt.Sprintf("%gs", v/1000)
		}
		return fmt.Sprintf("%gms", v)
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

func formatBytes(v float64) string {
	type unit struct {
		suffix string
		size   float64
	}
	units := []unit{{"GB", 1 << 30}, {"MB", 1 << 20}, {"kB", 1 << 10}}
	for _, u := range units {
		if v >= u.size && math.Mod(v, u.size) == 0 {
			return fmt.Sprintf("%g%s", v/u.size, u.suffix)
		}
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
