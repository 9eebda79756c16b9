package repository

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/metrics"
	"autodbaas/internal/tuner"
)

// The store section is binary and catalogue-ordered, so each knob and
// metric name is written once per engine rather than once per sample:
//
//	section:  magic "ADBS" | version (1 byte) |
//	          uvarint #engines | engine... |
//	          uvarint #workloads | (string workload ID, uvarint #samples)... |
//	          sample... (workload by workload, in store order)
//	engine:   string name | uvarint #knobs | string knob... |
//	          uvarint #metrics | string metric...
//	sample:   uvarint engine index | flags (1 byte) |
//	          config values | metric values |
//	          Objective (float64) | Window (varint ns) | At
//	values:   nothing if the map is nil; else, if the sparse flag is set,
//	          a bitmap over the engine's names (bit i of byte i/8) then
//	          one float64 per set bit; else one float64 per name
//	At:       varint Unix seconds | uvarint nanoseconds |
//	          varint zone offset in seconds, if the zoned flag is set
//	string:   uvarint length | bytes
//	float64:  math.Float64bits, uint64 LE
//
// An engine's names are the keys its samples actually carry, in
// catalogue order, with keys outside the catalogue after them in sorted
// order; a reader needs no catalogue. Values travel bit for bit, so
// NaN, ±Inf and −0 survive. A time's location is rebuilt from its zone
// offset, as encoding/json rebuilds it. A section that does not open
// with the magic is the JSON lines Save wrote before this codec.
const (
	storeMagic   = "ADBS"
	storeVersion = 1
)

// Sample flag bits.
const (
	flagQuality = 1 << iota
	flagConfigNil
	flagConfigSparse
	flagMetricsNil
	flagMetricsSparse
	flagAtZoned
	flagMask = 1<<iota - 1
)

// minSampleBytes is the smallest encoded sample: engine index, flags,
// Objective, Window and a UTC At. It bounds counts read from the
// section before anything is allocated for them.
const minSampleBytes = 1 + 1 + 8 + 1 + 2

// engineHeader is one engine's name lists.
type engineHeader struct {
	engine  knobs.Engine
	knobs   []string
	metrics []string
}

// encodeStore encodes samples, which must be grouped by workload in
// first-seen order (tuner.Store.All's order).
func encodeStore(samples []tuner.Sample) []byte {
	var (
		engines   []engineHeader
		engineIdx = make(map[knobs.Engine]int)
		knobSets  []map[string]bool
		metSets   []map[string]bool
		workloads []string
		counts    []int
		size      = len(storeMagic) + 16
	)
	for i := range samples {
		s := &samples[i]
		e, ok := engineIdx[s.Engine]
		if !ok {
			e = len(engines)
			engineIdx[s.Engine] = e
			engines = append(engines, engineHeader{engine: s.Engine})
			knobSets = append(knobSets, make(map[string]bool))
			metSets = append(metSets, make(map[string]bool))
		}
		for k := range s.Config {
			knobSets[e][k] = true
		}
		for k := range s.Metrics {
			metSets[e][k] = true
		}
		if n := len(workloads); n == 0 || workloads[n-1] != s.WorkloadID {
			workloads = append(workloads, s.WorkloadID)
			counts = append(counts, 0)
		}
		counts[len(counts)-1]++
		size += 32 + 8*(len(s.Config)+len(s.Metrics))
	}
	for e := range engines {
		h := &engines[e]
		var knobOrder, metOrder []string
		if c, err := knobs.CatalogFor(h.engine); err == nil {
			knobOrder = c.Names()
		}
		if c, err := metrics.CatalogFor(string(h.engine)); err == nil {
			metOrder = c.Names()
		}
		h.knobs = catalogueOrder(knobSets[e], knobOrder)
		h.metrics = catalogueOrder(metSets[e], metOrder)
	}

	b := make([]byte, 0, size)
	b = append(b, storeMagic...)
	b = append(b, storeVersion)
	b = binary.AppendUvarint(b, uint64(len(engines)))
	for _, h := range engines {
		b = appendString(b, string(h.engine))
		b = appendStrings(b, h.knobs)
		b = appendStrings(b, h.metrics)
	}
	b = binary.AppendUvarint(b, uint64(len(workloads)))
	for i, w := range workloads {
		b = appendString(b, w)
		b = binary.AppendUvarint(b, uint64(counts[i]))
	}
	for i := range samples {
		s := &samples[i]
		e := engineIdx[s.Engine]
		h := &engines[e]
		var flags byte
		if s.Quality {
			flags |= flagQuality
		}
		flags |= valuesFlag(s.Config, h.knobs, flagConfigNil, flagConfigSparse)
		flags |= valuesFlag(s.Metrics, h.metrics, flagMetricsNil, flagMetricsSparse)
		_, offset := s.At.Zone()
		if offset != 0 {
			flags |= flagAtZoned
		}
		b = binary.AppendUvarint(b, uint64(e))
		b = append(b, flags)
		b = appendValues(b, s.Config, h.knobs, flags&flagConfigSparse != 0)
		b = appendValues(b, s.Metrics, h.metrics, flags&flagMetricsSparse != 0)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Objective))
		b = binary.AppendVarint(b, int64(s.Window))
		b = binary.AppendVarint(b, s.At.Unix())
		b = binary.AppendUvarint(b, uint64(s.At.Nanosecond()))
		if offset != 0 {
			b = binary.AppendVarint(b, int64(offset))
		}
	}
	return b
}

// catalogueOrder lists the names in set: those in the catalogue first,
// in its order, then the rest sorted.
func catalogueOrder(set map[string]bool, catalogue []string) []string {
	out := make([]string, 0, len(set))
	catalogued := make(map[string]bool, len(catalogue))
	for _, n := range catalogue {
		catalogued[n] = true
		if set[n] {
			out = append(out, n)
		}
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

// valuesFlag returns the nil or sparse flag m needs against names, the
// union of its engine's keys: a map holding every name is dense.
func valuesFlag(m map[string]float64, names []string, nilFlag, sparseFlag byte) byte {
	switch {
	case m == nil:
		return nilFlag
	case len(m) < len(names):
		return sparseFlag
	}
	return 0
}

// appendValues writes m's values in names order, behind a presence
// bitmap when sparse. A nil map writes nothing.
func appendValues(b []byte, m map[string]float64, names []string, sparse bool) []byte {
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
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

// errShort is the decoder's error for a section that ends early or
// claims more than it holds.
var errShort = errors.New("section ends inside its data")

// decoder reads a binary store section. The first failure sticks: every
// later read returns zero values, and callers check err at the end of a
// record.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail(errShort)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail(errShort)
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads a uvarint count of items that take at least per bytes
// each, and rejects one the rest of the section cannot hold.
func (d *decoder) count(per int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/per) {
		d.fail(errShort)
		return 0
	}
	return int(n)
}

func (d *decoder) take(n int) []byte {
	if n > len(d.b) {
		d.fail(errShort)
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *decoder) u8() byte {
	if p := d.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (d *decoder) f64() float64 {
	if p := d.take(8); p != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(p))
	}
	return 0
}

func (d *decoder) str() string { return string(d.take(d.count(1))) }

// names reads a name list; a repeated name would fold two values into
// one map key, so it is corrupt.
func (d *decoder) names() []string {
	out := make([]string, d.count(1))
	seen := make(map[string]bool, len(out))
	for i := range out {
		out[i] = d.str()
		if seen[out[i]] {
			d.fail(fmt.Errorf("name %q listed twice", out[i]))
		}
		seen[out[i]] = true
	}
	return out
}

// values reads one sample's config or metrics against names.
func (d *decoder) values(names []string, isNil, sparse bool) map[string]float64 {
	if isNil {
		return nil
	}
	if !sparse {
		m := make(map[string]float64, len(names))
		for _, n := range names {
			m[n] = d.f64()
		}
		return m
	}
	bitmap := d.take((len(names) + 7) / 8)
	if d.err != nil {
		return nil
	}
	if r := len(names) % 8; r != 0 && bitmap[len(bitmap)-1]>>r != 0 {
		d.fail(errors.New("presence bitmap marks a name past the header"))
		return nil
	}
	var present int
	for _, c := range bitmap {
		present += bits.OnesCount8(c)
	}
	m := make(map[string]float64, present)
	for i, n := range names {
		if bitmap[i/8]&(1<<(i%8)) != 0 {
			m[n] = d.f64()
		}
	}
	return m
}

// decodeStore decodes a whole binary section, or fails without a
// partial result.
func decodeStore(data []byte) ([]tuner.Sample, error) {
	d := &decoder{b: data[len(storeMagic):]}
	if v := d.u8(); d.err == nil && v != storeVersion {
		return nil, fmt.Errorf("store section is v%d, this build reads v%d", v, storeVersion)
	}
	engines := make([]engineHeader, d.count(3))
	for i := range engines {
		engines[i] = engineHeader{engine: knobs.Engine(d.str()), knobs: d.names(), metrics: d.names()}
	}
	workloads := make([]string, d.count(2))
	counts := make([]int, len(workloads))
	total := 0
	for i := range workloads {
		workloads[i] = d.str()
		counts[i] = d.count(minSampleBytes)
		total += counts[i]
	}
	if d.err != nil {
		return nil, d.err
	}
	if total > len(d.b)/minSampleBytes {
		return nil, errShort
	}
	samples := make([]tuner.Sample, 0, total)
	for w, id := range workloads {
		for j := 0; j < counts[w]; j++ {
			e := d.uvarint()
			flags := d.u8()
			if d.err != nil {
				return nil, d.err
			}
			if e >= uint64(len(engines)) {
				return nil, fmt.Errorf("sample names engine %d of %d", e, len(engines))
			}
			if flags&^flagMask != 0 {
				return nil, fmt.Errorf("sample has unknown flags %#x", flags)
			}
			h := &engines[e]
			s := tuner.Sample{
				WorkloadID: id,
				Engine:     h.engine,
				Config:     d.values(h.knobs, flags&flagConfigNil != 0, flags&flagConfigSparse != 0),
				Metrics:    d.values(h.metrics, flags&flagMetricsNil != 0, flags&flagMetricsSparse != 0),
				Objective:  d.f64(),
				Quality:    flags&flagQuality != 0,
				Window:     time.Duration(d.varint()),
			}
			sec, nsec := d.varint(), d.uvarint()
			var offset int64
			if flags&flagAtZoned != 0 {
				offset = d.varint()
			}
			if d.err != nil {
				return nil, d.err
			}
			if nsec >= uint64(time.Second) || offset <= -maxZoneOffset || offset >= maxZoneOffset {
				return nil, fmt.Errorf("sample time %d.%09d%+ds is out of range", sec, nsec, offset)
			}
			s.At = restoreTime(time.Unix(sec, int64(nsec)), int(offset))
			samples = append(samples, s)
		}
	}
	if len(d.b) > 0 {
		return nil, fmt.Errorf("%d bytes after the last sample", len(d.b))
	}
	return samples, nil
}

// maxZoneOffset bounds a zone offset in seconds: a day either way.
const maxZoneOffset = 24 * 60 * 60

// restoreTime gives t the location encoding/json gives a time written
// with the given zone offset: UTC for a zero offset, Local where Local
// had that offset at t, else an unnamed fixed zone.
func restoreTime(t time.Time, offset int) time.Time {
	if offset == 0 {
		return t.UTC()
	}
	if _, local := t.In(time.Local).Zone(); local == offset {
		return t.In(time.Local)
	}
	return t.In(time.FixedZone("", offset))
}

// decodeLegacy decodes the JSON lines Save wrote before the binary
// codec: one tuner.Sample object per line.
func decodeLegacy(data []byte) ([]tuner.Sample, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var samples []tuner.Sample
	for {
		var s tuner.Sample
		if err := dec.Decode(&s); err != nil {
			if err == io.EOF {
				return samples, nil
			}
			return nil, err
		}
		samples = append(samples, s)
	}
}
