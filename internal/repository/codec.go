package repository

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"autodbaas/internal/bincodec"
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
// An engine's names are the knobs and metrics its samples carry, in
// catalogue order: the set bits of the OR of their presence masks. A
// reader maps them back to catalogue positions, so it needs the
// engine's catalogues and rejects a name outside them. Values travel
// bit for bit, so NaN, ±Inf and −0 survive. A time's location is
// rebuilt from its zone offset, as encoding/json rebuilds it. The
// primitives are package bincodec's.
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

// engineHeader is one engine's name lists, as the set bits of a
// presence mask over its catalogues.
type engineHeader struct {
	engine        knobs.Engine
	knobs, mets   uint64
	knobN, metN   int   // catalogue lengths, the size of a vector
	knobIx, metIx []int // header position → catalogue position
	// knobVecs and metVecs count the encoder's non-nil vectors, each of
	// which may carry a presence bitmap over the header.
	knobVecs, metVecs int
}

// encodeStore encodes the samples that each visits, which must come
// grouped by workload in first-seen order (tuner.Store.Range's order).
// It visits them twice: once to build the headers and bound the
// section's length, then to append every sample in place to a buffer
// of that length, so the section is the only copy of the samples it
// makes. It fails on a sample whose engine has no catalogues but which
// carries a vector, and when the second visit sees a different number
// of samples than the first (the store grew in between).
func encodeStore(each func(func(*tuner.Sample))) ([]byte, error) {
	var (
		engines   []engineHeader
		engineIdx = make(map[knobs.Engine]int)
		workloads []string
		counts    []int
		body      int // a bound on the samples' encoded length
	)
	each(func(s *tuner.Sample) {
		e, ok := engineIdx[s.Engine]
		if !ok {
			e = len(engines)
			engineIdx[s.Engine] = e
			engines = append(engines, engineHeader{engine: s.Engine})
		}
		h := &engines[e]
		h.knobs |= s.Config.Set
		h.mets |= s.Metrics.Set
		if s.Config.Vals != nil {
			h.knobVecs++
			body += 8 * bits.OnesCount64(s.Config.Set)
		}
		if s.Metrics.Vals != nil {
			h.metVecs++
			body += 8 * bits.OnesCount64(s.Metrics.Set)
		}
		if n := len(workloads); n == 0 || workloads[n-1] != s.WorkloadID {
			workloads = append(workloads, s.WorkloadID)
			counts = append(counts, 0)
		}
		counts[len(counts)-1]++
		body += uvarintLen(uint64(e)) + 1 + 8 + varintLen(int64(s.Window)) + timeLen(s.At)
	})

	b := append([]byte(storeMagic), storeVersion)
	b = binary.AppendUvarint(b, uint64(len(engines)))
	for _, h := range engines {
		var knobNames, metNames []string
		if h.knobs|h.mets != 0 {
			kc, err := knobs.CatalogFor(h.engine)
			if err != nil {
				return nil, err
			}
			mc, err := metrics.CatalogFor(string(h.engine))
			if err != nil {
				return nil, err
			}
			knobNames, metNames = maskNames(kc.Names(), h.knobs), maskNames(mc.Names(), h.mets)
		}
		b = bincodec.AppendString(b, string(h.engine))
		b = bincodec.AppendStrings(b, knobNames)
		b = bincodec.AppendStrings(b, metNames)
		body += h.knobVecs*bitmapLen(h.knobs) + h.metVecs*bitmapLen(h.mets)
	}
	b = binary.AppendUvarint(b, uint64(len(workloads)))
	total := 0
	for i, w := range workloads {
		b = bincodec.AppendString(b, w)
		b = binary.AppendUvarint(b, uint64(counts[i]))
		total += counts[i]
	}
	b = append(make([]byte, 0, len(b)+body), b...)

	each(func(s *tuner.Sample) {
		total--
		e, ok := engineIdx[s.Engine]
		if !ok {
			return // added since the first visit: the count check fails
		}
		h := &engines[e]
		var flags byte
		if s.Quality {
			flags |= flagQuality
		}
		flags |= vectorFlag(s.Config.Vals, s.Config.Set, h.knobs, flagConfigNil, flagConfigSparse)
		flags |= vectorFlag(s.Metrics.Vals, s.Metrics.Set, h.mets, flagMetricsNil, flagMetricsSparse)
		_, offset := s.At.Zone()
		if offset != 0 {
			flags |= flagAtZoned
		}
		b = binary.AppendUvarint(b, uint64(e))
		b = append(b, flags)
		b = appendVector(b, s.Config.Vals, s.Config.Set, h.knobs, flags&flagConfigSparse != 0)
		b = appendVector(b, s.Metrics.Vals, s.Metrics.Set, h.mets, flags&flagMetricsSparse != 0)
		b = bincodec.AppendF64(b, s.Objective)
		b = binary.AppendVarint(b, int64(s.Window))
		b = bincodec.AppendTime(b, s.At, offset != 0)
	})
	if total != 0 {
		return nil, errors.New("the samples changed while the store section was encoded")
	}
	return b, nil
}

// uvarintLen is the length of binary.AppendUvarint's encoding of x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// varintLen is the length of binary.AppendVarint's encoding of x.
func varintLen(x int64) int { return uvarintLen(uint64(x<<1) ^ uint64(x>>63)) }

// timeLen is the length of an At as encodeStore writes it.
func timeLen(t time.Time) int {
	n := varintLen(t.Unix()) + uvarintLen(uint64(t.Nanosecond()))
	if _, offset := t.Zone(); offset != 0 {
		n += varintLen(int64(offset))
	}
	return n
}

// bitmapLen is the length of a presence bitmap over a header mask.
func bitmapLen(hdr uint64) int { return (bits.OnesCount64(hdr) + 7) / 8 }

// maskNames lists the names at mask's set bits, in order.
func maskNames(names []string, mask uint64) []string {
	out := make([]string, 0, bits.OnesCount64(mask))
	for m := mask; m != 0; m &= m - 1 {
		out = append(out, names[bits.TrailingZeros64(m)])
	}
	return out
}

// vectorFlag returns the flag a vector needs against hdr, its engine's
// header mask (a superset of set).
func vectorFlag(vals []float64, set, hdr uint64, nilFlag, sparseFlag byte) byte {
	switch {
	case vals == nil:
		return nilFlag
	case set != hdr:
		return sparseFlag
	}
	return 0
}

// appendVector writes a vector's values in header order, behind a
// presence bitmap over the header (bit j of byte j/8) when sparse. A
// nil vector writes nothing.
func appendVector(b []byte, vals []float64, set, hdr uint64, sparse bool) []byte {
	if vals == nil {
		return b
	}
	bitmap := len(b)
	if sparse {
		b = append(b, make([]byte, bitmapLen(hdr))...)
	}
	j := 0
	for m := hdr; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if set&(1<<i) != 0 {
			if sparse {
				b[bitmap+j/8] |= 1 << (j % 8)
			}
			b = bincodec.AppendF64(b, vals[i])
		}
		j++
	}
	return b
}

// decodeStore decodes a whole binary section, or fails without a
// partial result.
func decodeStore(data []byte) ([]tuner.Sample, error) {
	d := bincodec.NewDecoder(data[len(storeMagic):])
	if v := d.U8(); d.Err() == nil && v != storeVersion {
		return nil, fmt.Errorf("store section is v%d, this build reads v%d", v, storeVersion)
	}
	engines := make([]engineHeader, d.Count(3))
	for i := range engines {
		h := &engines[i]
		h.engine = knobs.Engine(d.Str())
		knobNames, metNames := d.Names(), d.Names()
		if d.Err() != nil {
			return nil, d.Err()
		}
		kc, err := knobs.CatalogFor(h.engine)
		if err != nil {
			return nil, err
		}
		mc, err := metrics.CatalogFor(string(h.engine))
		if err != nil {
			return nil, err
		}
		h.knobN, h.metN = kc.Len(), mc.Len()
		if h.knobIx, err = headerIndex(knobNames, kc.Index); err != nil {
			return nil, fmt.Errorf("%s knob header: %w", h.engine, err)
		}
		if h.metIx, err = headerIndex(metNames, mc.Index); err != nil {
			return nil, fmt.Errorf("%s metric header: %w", h.engine, err)
		}
	}
	workloads := make([]string, d.Count(2))
	counts := make([]int, len(workloads))
	total := 0
	for i := range workloads {
		workloads[i] = d.Str()
		counts[i] = d.Count(minSampleBytes)
		total += counts[i]
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	if total > d.Len()/minSampleBytes {
		return nil, bincodec.ErrShort
	}
	samples := make([]tuner.Sample, 0, total)
	var cfgBuf []float64
	for w, id := range workloads {
		// A config equal to the workload's previous one shares its
		// vector, as the samples a live store was given between two
		// applies do; it decodes into cfgBuf first.
		var prevCfg knobs.Vector
		for j := 0; j < counts[w]; j++ {
			e := d.Uvarint()
			flags := d.U8()
			if d.Err() != nil {
				return nil, d.Err()
			}
			if e >= uint64(len(engines)) {
				return nil, fmt.Errorf("sample names engine %d of %d", e, len(engines))
			}
			if flags&^flagMask != 0 {
				return nil, fmt.Errorf("sample has unknown flags %#x", flags)
			}
			h := &engines[e]
			s := tuner.Sample{WorkloadID: id, Engine: h.engine, Quality: flags&flagQuality != 0}
			s.Config.Vals, s.Config.Set = readVector(d, h.knobIx, h.knobN, flags&flagConfigNil != 0, flags&flagConfigSparse != 0, &cfgBuf)
			if s.Config.Vals != nil {
				if sameVector(s.Config, prevCfg) {
					s.Config = prevCfg
				} else {
					s.Config.Vals = slices.Clone(s.Config.Vals)
					prevCfg = s.Config
				}
			}
			s.Metrics.Vals, s.Metrics.Set = readVector(d, h.metIx, h.metN, flags&flagMetricsNil != 0, flags&flagMetricsSparse != 0, nil)
			s.Objective = d.F64()
			s.Window = time.Duration(d.Varint())
			s.At = d.Time(flags&flagAtZoned != 0)
			if d.Err() != nil {
				return nil, fmt.Errorf("sample: %w", d.Err())
			}
			samples = append(samples, s)
		}
	}
	if d.Len() > 0 {
		return nil, fmt.Errorf("%d bytes after the last sample", d.Len())
	}
	return samples, nil
}

// headerIndex maps a header's names to catalogue positions, which must
// ascend: an encoder lists a header in catalogue order.
func headerIndex(names []string, index func(string) (int, bool)) ([]int, error) {
	out := make([]int, len(names))
	for j, n := range names {
		i, ok := index(n)
		if !ok {
			return nil, fmt.Errorf("%q is not in the catalogue", n)
		}
		if j > 0 && i <= out[j-1] {
			return nil, fmt.Errorf("%q is out of catalogue order", n)
		}
		out[j] = i
	}
	return out, nil
}

// readVector reads an appendVector vector into a slice of n catalogue
// slots, idx mapping header positions to them: a new slice when buf is
// nil, else *buf, grown as needed. It fails before allocating one the
// rest of the section cannot hold.
func readVector(d *bincodec.Decoder, idx []int, n int, isNil, sparse bool, buf *[]float64) ([]float64, uint64) {
	if isNil {
		return nil, 0
	}
	present := len(idx)
	var bitmap []byte
	if sparse {
		bitmap = d.Take((len(idx) + 7) / 8)
		if r := len(idx) % 8; d.Err() == nil && r != 0 && bitmap[len(bitmap)-1]>>r != 0 {
			d.Fail(errors.New("presence bitmap marks a name past the header"))
		}
		present = 0
		for _, c := range bitmap {
			present += bits.OnesCount8(c)
		}
	}
	if present > d.Len()/8 {
		d.Fail(bincodec.ErrShort)
	}
	if d.Err() != nil {
		return nil, 0
	}
	var vals []float64
	if buf == nil {
		vals = make([]float64, n)
	} else {
		*buf = slices.Grow((*buf)[:0], n)[:n]
		vals = *buf
		clear(vals)
	}
	var set uint64
	for j, i := range idx {
		if !sparse || bitmap[j/8]&(1<<(j%8)) != 0 {
			vals[i] = d.F64()
			set |= 1 << i
		}
	}
	return vals, set
}

// sameVector reports whether a and b hold the same values bit for bit,
// NaN and −0 included, in the same catalogue slots.
func sameVector(a, b knobs.Vector) bool {
	if a.Set != b.Set || len(a.Vals) != len(b.Vals) {
		return false
	}
	for i, v := range a.Vals {
		if math.Float64bits(v) != math.Float64bits(b.Vals[i]) {
			return false
		}
	}
	return true
}
