// Package bincodec holds the primitives of the snapshot's binary store
// and instance sections: varints, float64 bits, strings, catalogue-
// ordered name headers with bitmapped values, and times. Its Decoder
// rejects what no encoder writes.
package bincodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"
)

// AppendString writes s, length first.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendStrings writes a count, then each string.
func AppendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = AppendString(b, s)
	}
	return b
}

// AppendInt writes a non-negative int as a uvarint.
func AppendInt(b []byte, v int) []byte { return binary.AppendUvarint(b, uint64(v)) }

// AppendBool writes 1 or 0.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendF64 writes v's bits, so NaN, ±Inf and −0 travel bit for bit.
func AppendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendTime writes t's Unix seconds (varint) and nanoseconds
// (uvarint), then, when zoned, its zone offset in seconds (varint).
func AppendTime(b []byte, t time.Time, zoned bool) []byte {
	b = binary.AppendUvarint(binary.AppendVarint(b, t.Unix()), uint64(t.Nanosecond()))
	if zoned {
		_, offset := t.Zone()
		b = binary.AppendVarint(b, int64(offset))
	}
	return b
}

// CatalogueOrder lists the names in set: those in the catalogue first,
// in its order, then the rest sorted.
func CatalogueOrder(set map[string]bool, catalogue []string) []string {
	out := make([]string, 0, len(set))
	catalogued := make(map[string]bool, len(catalogue))
	for _, n := range catalogue {
		if !catalogued[n] && set[n] {
			out = append(out, n)
		}
		catalogued[n] = true
	}
	tail := len(out)
	for n := range set {
		if !catalogued[n] {
			out = append(out, n)
		}
	}
	sort.Strings(out[tail:])
	return out
}

// ValuesFlag returns the flag m needs against names, its keys' header.
func ValuesFlag(m map[string]float64, names []string, nilFlag, sparseFlag byte) byte {
	switch {
	case m == nil:
		return nilFlag
	case len(m) < len(names):
		return sparseFlag
	}
	return 0
}

// AppendValues writes m's values in names order, behind a presence
// bitmap (bit i of byte i/8) when sparse. A nil map writes nothing.
func AppendValues(b []byte, m map[string]float64, names []string, sparse bool) []byte {
	if m == nil {
		return b
	}
	bitmap := len(b)
	if sparse {
		b = append(b, make([]byte, (len(names)+7)/8)...)
	}
	for i, n := range names {
		if v, ok := m[n]; ok {
			if sparse {
				b[bitmap+i/8] |= 1 << (i % 8)
			}
			b = AppendF64(b, v)
		}
	}
	return b
}

// ErrShort: a section ends early or claims more than it holds.
var ErrShort = errors.New("section ends inside its data")

// Decoder reads a section. The first failure sticks: later reads return
// zero values, and callers check Err at the end of a record.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder reads b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Len returns how many bytes are left.
func (d *Decoder) Len() int { return len(d.b) }

// Fail records err, unless one is recorded, and ends the section.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 { return varint(d, binary.Uvarint) }

// Varint reads a signed varint.
func (d *Decoder) Varint() int64 { return varint(d, binary.Varint) }

func varint[T uint64 | int64](d *Decoder, read func([]byte) (T, int)) T {
	v, n := read(d.b)
	if n <= 0 {
		d.Fail(ErrShort)
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Int reads a uvarint that must fit a non-negative int.
func (d *Decoder) Int() int {
	v := d.Uvarint()
	if v > math.MaxInt {
		d.Fail(fmt.Errorf("count %d overflows an int", v))
		return 0
	}
	return int(v)
}

// Count reads a count of items of at least per bytes the rest can hold.
func (d *Decoder) Count(per int) int {
	n := d.Uvarint()
	if n > uint64(len(d.b)/per) {
		d.Fail(ErrShort)
		return 0
	}
	return int(n)
}

// Take returns the next n bytes, aliasing the section.
func (d *Decoder) Take(n int) []byte {
	if n > len(d.b) {
		d.Fail(ErrShort)
		return nil
	}
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

// U8 reads one byte.
func (d *Decoder) U8() byte {
	if p := d.Take(1); p != nil {
		return p[0]
	}
	return 0
}

// Bool reads a byte that must be 0 or 1.
func (d *Decoder) Bool() bool {
	v := d.U8()
	if v > 1 {
		d.Fail(fmt.Errorf("bool byte %d", v))
	}
	return v == 1
}

// F64 reads a float64's bits.
func (d *Decoder) F64() float64 {
	if p := d.Take(8); p != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(p))
	}
	return 0
}

// Str reads a string.
func (d *Decoder) Str() string { return string(d.Take(d.Count(1))) }

// Names reads a name header; a repeated name is corrupt.
func (d *Decoder) Names() []string {
	out := make([]string, d.Count(1))
	seen := make(map[string]bool, len(out))
	for i := range out {
		out[i] = d.Str()
		if seen[out[i]] {
			d.Fail(fmt.Errorf("name %q listed twice", out[i]))
		}
		seen[out[i]] = true
	}
	return out
}

// Values reads an AppendValues map, failing before allocating one the
// rest of the section cannot hold.
func (d *Decoder) Values(names []string, isNil, sparse bool) map[string]float64 {
	if isNil {
		return nil
	}
	present := len(names)
	var bitmap []byte
	if sparse {
		bitmap = d.Take((len(names) + 7) / 8)
		if r := len(names) % 8; d.err == nil && r != 0 && bitmap[len(bitmap)-1]>>r != 0 {
			d.Fail(errors.New("presence bitmap marks a name past the header"))
		}
		present = 0
		for _, c := range bitmap {
			present += bits.OnesCount8(c)
		}
	}
	if present > d.Len()/8 {
		d.Fail(ErrShort)
	}
	if d.err != nil {
		return nil
	}
	m := make(map[string]float64, present)
	for i, n := range names {
		if !sparse || bitmap[i/8]&(1<<(i%8)) != 0 {
			m[n] = d.F64()
		}
	}
	return m
}

// Time reads an AppendTime time in the location encoding/json would
// give it: UTC, Local if Local had its offset then, else a fixed zone.
func (d *Decoder) Time(zoned bool) time.Time {
	sec, nsec := d.Varint(), d.Uvarint()
	var offset int64
	if zoned {
		offset = d.Varint()
	}
	if d.err == nil && (nsec >= uint64(time.Second) || offset <= -86400 || offset >= 86400) { // a day either way
		d.Fail(fmt.Errorf("time %d.%09d%+ds is out of range", sec, nsec, offset))
	}
	if d.err != nil {
		return time.Time{}
	}
	t := time.Unix(sec, int64(nsec))
	if offset == 0 {
		return t.UTC()
	}
	if _, local := t.In(time.Local).Zone(); local == int(offset) {
		return t.In(time.Local)
	}
	return t.In(time.FixedZone("", int(offset)))
}
