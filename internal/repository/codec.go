package repository

import (
	"encoding/binary"
	"fmt"
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
// An engine's names are the keys its samples actually carry, in
// catalogue order, with keys outside the catalogue after them in sorted
// order; a reader needs no catalogue. Values travel bit for bit, so
// NaN, ±Inf and −0 survive. A time's location is rebuilt from its zone
// offset, as encoding/json rebuilds it. The primitives are package
// bincodec's.
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
		h.knobs = bincodec.CatalogueOrder(knobSets[e], knobOrder)
		h.metrics = bincodec.CatalogueOrder(metSets[e], metOrder)
	}

	b := make([]byte, 0, size)
	b = append(b, storeMagic...)
	b = append(b, storeVersion)
	b = binary.AppendUvarint(b, uint64(len(engines)))
	for _, h := range engines {
		b = bincodec.AppendString(b, string(h.engine))
		b = bincodec.AppendStrings(b, h.knobs)
		b = bincodec.AppendStrings(b, h.metrics)
	}
	b = binary.AppendUvarint(b, uint64(len(workloads)))
	for i, w := range workloads {
		b = bincodec.AppendString(b, w)
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
		flags |= bincodec.ValuesFlag(s.Config, h.knobs, flagConfigNil, flagConfigSparse)
		flags |= bincodec.ValuesFlag(s.Metrics, h.metrics, flagMetricsNil, flagMetricsSparse)
		_, offset := s.At.Zone()
		if offset != 0 {
			flags |= flagAtZoned
		}
		b = binary.AppendUvarint(b, uint64(e))
		b = append(b, flags)
		b = bincodec.AppendValues(b, s.Config, h.knobs, flags&flagConfigSparse != 0)
		b = bincodec.AppendValues(b, s.Metrics, h.metrics, flags&flagMetricsSparse != 0)
		b = bincodec.AppendF64(b, s.Objective)
		b = binary.AppendVarint(b, int64(s.Window))
		b = bincodec.AppendTime(b, s.At, offset != 0)
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
		engines[i] = engineHeader{engine: knobs.Engine(d.Str()), knobs: d.Names(), metrics: d.Names()}
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
	for w, id := range workloads {
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
			samples = append(samples, tuner.Sample{
				WorkloadID: id,
				Engine:     h.engine,
				Config:     d.Values(h.knobs, flags&flagConfigNil != 0, flags&flagConfigSparse != 0),
				Metrics:    d.Values(h.metrics, flags&flagMetricsNil != 0, flags&flagMetricsSparse != 0),
				Objective:  d.F64(),
				Quality:    flags&flagQuality != 0,
				Window:     time.Duration(d.Varint()),
				At:         d.Time(flags&flagAtZoned != 0),
			})
			if d.Err() != nil {
				return nil, fmt.Errorf("sample: %w", d.Err())
			}
		}
	}
	if d.Len() > 0 {
		return nil, fmt.Errorf("%d bytes after the last sample", d.Len())
	}
	return samples, nil
}
