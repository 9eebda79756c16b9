package repository

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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
	// knobVecs and metVecs count the planned non-nil vectors, and
	// knobFull and metFull those that carry every header name: each of
	// the others writes a presence bitmap over the header.
	knobVecs, metVecs int
	knobFull, metFull int
}

// countVector adds one vector's presence mask to a header mask, vecs and
// full. A vector counted as full before the mask last grew is a strict
// subset of the final mask, so the mask's growth resets full.
func countVector(hdr *uint64, vecs, full *int, set uint64, isNil bool) {
	if *hdr|set != *hdr {
		*hdr |= set
		*full = 0
	}
	if !isNil {
		*vecs++
		if set == *hdr {
			*full++
		}
	}
}

// StoreSection is a store section planned but not written: its engine
// headers and workload table are built and its exact length is known,
// and WriteTo encodes its samples from the store as it goes. The store
// must not grow between the plan and the write: a write that visits a
// different number of samples than the plan fails.
type StoreSection struct {
	each      func(func(*tuner.Sample))
	engines   []engineHeader
	engineIdx map[knobs.Engine]int
	head      []byte // magic through the workload table
	samples   int
	size      int64
}

// storeFlush is how many encoded bytes WriteTo gathers before handing
// them to its writer; a sample is far shorter, so its buffer of twice
// that, or of the section's length when that is less, never grows.
const storeFlush = 16 << 10

// planStore plans the section of the samples that each visits, which
// must come grouped by workload in first-seen order (tuner.Store.Range's
// order). It visits them once and writes no sample. It fails on a
// sample whose engine has no catalogues but which carries a vector.
func planStore(each func(func(*tuner.Sample))) (*StoreSection, error) {
	p := &StoreSection{each: each, engineIdx: make(map[knobs.Engine]int)}
	var (
		workloads []string
		counts    []int
		body      int
	)
	each(func(s *tuner.Sample) {
		e, ok := p.engineIdx[s.Engine]
		if !ok {
			e = len(p.engines)
			p.engineIdx[s.Engine] = e
			p.engines = append(p.engines, engineHeader{engine: s.Engine})
		}
		h := &p.engines[e]
		countVector(&h.knobs, &h.knobVecs, &h.knobFull, s.Config.Set, s.Config.Vals == nil)
		countVector(&h.mets, &h.metVecs, &h.metFull, s.Metrics.Set, s.Metrics.Vals == nil)
		if s.Config.Vals != nil {
			body += 8 * bits.OnesCount64(s.Config.Set)
		}
		if s.Metrics.Vals != nil {
			body += 8 * bits.OnesCount64(s.Metrics.Set)
		}
		if n := len(workloads); n == 0 || workloads[n-1] != s.WorkloadID {
			workloads = append(workloads, s.WorkloadID)
			counts = append(counts, 0)
		}
		counts[len(counts)-1]++
		p.samples++
		body += uvarintLen(uint64(e)) + 1 + 8 + varintLen(int64(s.Window)) + timeLen(s.At)
	})

	b := append([]byte(storeMagic), storeVersion)
	b = binary.AppendUvarint(b, uint64(len(p.engines)))
	for _, h := range p.engines {
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
		body += (h.knobVecs-h.knobFull)*bitmapLen(h.knobs) + (h.metVecs-h.metFull)*bitmapLen(h.mets)
	}
	table := uvarintLen(uint64(len(workloads)))
	for i, w := range workloads {
		table += uvarintLen(uint64(len(w))) + len(w) + uvarintLen(uint64(counts[i]))
	}
	b = slices.Grow(b, table)
	b = binary.AppendUvarint(b, uint64(len(workloads)))
	for i, w := range workloads {
		b = bincodec.AppendString(b, w)
		b = binary.AppendUvarint(b, uint64(counts[i]))
	}
	p.head = b
	p.size = int64(len(b) + body)
	return p, nil
}

// Len returns the section's exact length in bytes.
func (p *StoreSection) Len() int64 { return p.size }

// WriteTo implements io.WriterTo: it visits the samples again, under
// the store's read lock, and encodes them one by one into a small
// buffer it flushes to w, so the section is never whole in memory.
func (p *StoreSection) WriteTo(w io.Writer) (int64, error) {
	written, err := w.Write(p.head)
	n := int64(written)
	buf := make([]byte, 0, min(2*storeFlush, p.size))
	flush := func() {
		if err == nil {
			written, err = w.Write(buf)
			n += int64(written)
		}
		buf = buf[:0]
	}
	visited := 0
	p.each(func(s *tuner.Sample) {
		visited++
		e, ok := p.engineIdx[s.Engine]
		if err != nil || !ok { // an engine new since the plan fails the count check
			return
		}
		buf = appendSample(buf, s, e, &p.engines[e])
		if len(buf) >= storeFlush {
			flush()
		}
	})
	flush()
	if err == nil && visited != p.samples {
		err = fmt.Errorf("the store held %d samples when its section was planned and %d when it was written", p.samples, visited)
	}
	return n, err
}

// appendSample encodes one sample of engine e.
func appendSample(b []byte, s *tuner.Sample, e int, h *engineHeader) []byte {
	var flags byte
	if s.Quality {
		flags |= flagQuality
	}
	flags |= vectorFlag(s.Config.Vals == nil, s.Config.Set, h.knobs, flagConfigNil, flagConfigSparse)
	flags |= vectorFlag(s.Metrics.Vals == nil, s.Metrics.Set, h.mets, flagMetricsNil, flagMetricsSparse)
	_, offset := s.At.Zone()
	if offset != 0 {
		flags |= flagAtZoned
	}
	b = binary.AppendUvarint(b, uint64(e))
	b = append(b, flags)
	if s.Config.Vals != nil {
		b = appendVector(b, s.Config.Vals, s.Config.Set, h.knobs, flags&flagConfigSparse != 0, false, 0)
	}
	if s.Metrics.Vals != nil {
		b = appendVector(b, s.Metrics.Vals, s.Metrics.Set, h.mets, flags&flagMetricsSparse != 0, true, s.Metrics.NZ)
	}
	b = bincodec.AppendF64(b, s.Objective)
	b = binary.AppendVarint(b, int64(s.Window))
	return bincodec.AppendTime(b, s.At, offset != 0)
}

// encodeStore plans the section of the samples that each visits and
// writes it into one buffer of its exact length: the section's bytes as
// one slice, for callers that want them so.
func encodeStore(each func(func(*tuner.Sample))) ([]byte, error) {
	p, err := planStore(each)
	if err != nil {
		return nil, err
	}
	b := bytes.NewBuffer(make([]byte, 0, p.Len()))
	if _, err := p.WriteTo(b); err != nil {
		return nil, err
	}
	if int64(b.Len()) != p.Len() {
		return nil, fmt.Errorf("the store section is %d bytes, planned %d", b.Len(), p.Len())
	}
	return b.Bytes(), nil
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
func vectorFlag(isNil bool, set, hdr uint64, nilFlag, sparseFlag byte) byte {
	switch {
	case isNil:
		return nilFlag
	case set != hdr:
		return sparseFlag
	}
	return 0
}

// appendVector writes a vector's values in header order, behind a
// presence bitmap over the header (bit j of byte j/8) when sparse.
// vals holds one value per catalogue slot (knobs.Vector), or, when
// packed, the values at nz's bits in catalogue order, every other
// present slot reading +0 (metrics.Vector).
func appendVector(b []byte, vals []float64, set, hdr uint64, sparse, packed bool, nz uint64) []byte {
	bitmap := len(b)
	if sparse {
		b = append(b, make([]byte, bitmapLen(hdr))...)
	}
	j, k := 0, 0
	for m := hdr; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if set&(1<<i) != 0 {
			if sparse {
				b[bitmap+j/8] |= 1 << (j % 8)
			}
			var x float64
			switch {
			case !packed:
				x = vals[i]
			case nz&(1<<i) != 0:
				x = vals[k]
				k++
			}
			b = bincodec.AppendF64(b, x)
		}
		j++
	}
	return b
}

// decodeStore decodes a whole binary section, handing each sample to
// add in section order, and returns how many it handed on. It fails on
// the first byte no encoder writes; add may then have seen a prefix of
// the samples.
func decodeStore(data []byte, add func(tuner.Sample)) (int, error) {
	d := bincodec.NewDecoder(data[len(storeMagic):])
	if v := d.U8(); d.Err() == nil && v != storeVersion {
		return 0, fmt.Errorf("store section is v%d, this build reads v%d", v, storeVersion)
	}
	engines := make([]engineHeader, d.Count(3))
	for i := range engines {
		h := &engines[i]
		h.engine = knobs.Engine(d.Str())
		knobNames, metNames := d.Names(), d.Names()
		if d.Err() != nil {
			return 0, d.Err()
		}
		kc, err := knobs.CatalogFor(h.engine)
		if err != nil {
			return 0, err
		}
		mc, err := metrics.CatalogFor(string(h.engine))
		if err != nil {
			return 0, err
		}
		h.knobN, h.metN = kc.Len(), mc.Len()
		if h.knobIx, err = headerIndex(knobNames, kc.Index); err != nil {
			return 0, fmt.Errorf("%s knob header: %w", h.engine, err)
		}
		if h.metIx, err = headerIndex(metNames, mc.Index); err != nil {
			return 0, fmt.Errorf("%s metric header: %w", h.engine, err)
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
		return 0, d.Err()
	}
	if total > d.Len()/minSampleBytes {
		return 0, bincodec.ErrShort
	}
	// Each vector decodes into a catalogue-slot array first: a config
	// equal to the workload's previous one shares its vector, as the
	// samples a live store was given between two applies do, and a
	// metric vector keeps only its nonzero values, as metrics.NewVector
	// packs a live one.
	var cfgBuf, metBuf [64]float64
	for w, id := range workloads {
		var prevCfg knobs.Vector
		for j := 0; j < counts[w]; j++ {
			e := d.Uvarint()
			flags := d.U8()
			if d.Err() != nil {
				return 0, d.Err()
			}
			if e >= uint64(len(engines)) {
				return 0, fmt.Errorf("sample names engine %d of %d", e, len(engines))
			}
			if flags&^flagMask != 0 {
				return 0, fmt.Errorf("sample has unknown flags %#x", flags)
			}
			h := &engines[e]
			s := tuner.Sample{WorkloadID: id, Engine: h.engine, Quality: flags&flagQuality != 0}
			if flags&flagConfigNil == 0 {
				clear(cfgBuf[:h.knobN])
				s.Config = knobs.Vector{Vals: cfgBuf[:h.knobN], Set: readVector(d, h.knobIx, flags&flagConfigSparse != 0, cfgBuf[:h.knobN])}
				if sameVector(s.Config, prevCfg) {
					s.Config = prevCfg
				} else {
					s.Config.Vals = slices.Clone(s.Config.Vals)
					prevCfg = s.Config
				}
			}
			if flags&flagMetricsNil == 0 {
				set := readVector(d, h.metIx, flags&flagMetricsSparse != 0, metBuf[:h.metN])
				s.Metrics = metrics.NewVector(metBuf[:h.metN], set)
			}
			s.Objective = d.F64()
			s.Window = time.Duration(d.Varint())
			s.At = d.Time(flags&flagAtZoned != 0)
			if d.Err() != nil {
				return 0, fmt.Errorf("sample: %w", d.Err())
			}
			add(s)
		}
	}
	if d.Len() > 0 {
		return 0, fmt.Errorf("%d bytes after the last sample", d.Len())
	}
	return total, nil
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

// readVector reads an appendVector vector into dense, one slot per
// catalogue position, idx mapping header positions to them, and returns
// its presence mask; it leaves the slots the mask lacks as they were.
// It fails before reading values the rest of the section cannot hold.
func readVector(d *bincodec.Decoder, idx []int, sparse bool, dense []float64) uint64 {
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
	// The values are taken from the decoder at once and read in place,
	// not one d.F64 at a time.
	vals := d.Take(8 * present)
	if d.Err() != nil {
		return 0
	}
	var set uint64
	for j, i := range idx {
		if !sparse || bitmap[j/8]&(1<<(j%8)) != 0 {
			dense[i] = math.Float64frombits(binary.LittleEndian.Uint64(vals))
			vals = vals[8:]
			set |= 1 << i
		}
	}
	return set
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
