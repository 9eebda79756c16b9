package workload

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"autodbaas/internal/obs"
	"autodbaas/internal/sqlparse"
)

// TraceRecord is one query of a recorded workload trace, serialized as
// JSON-lines so traces can be inspected, diffed and replayed — the
// stand-in for capturing a customer's streaming query log.
type TraceRecord struct {
	SQL     string  `json:"sql"`
	Class   string  `json:"class"`
	MemMB   float64 `json:"mem_mb,omitempty"`
	MaintMB float64 `json:"maint_mb,omitempty"`
	TempMB  float64 `json:"temp_mb,omitempty"`
	ReadMB  float64 `json:"read_mb"`
	WriteMB float64 `json:"write_mb"`
	Par     bool    `json:"parallelizable,omitempty"`
	Indexed bool    `json:"index_friendly,omitempty"`
}

const mbF = 1024 * 1024

func toRecord(q Query) TraceRecord {
	return TraceRecord{
		SQL:     q.Text(),
		Class:   q.Class.String(),
		MemMB:   q.Profile.MemDemand / mbF,
		MaintMB: q.Profile.MaintMem / mbF,
		TempMB:  q.Profile.TempBytes / mbF,
		ReadMB:  q.Profile.ReadBytes / mbF,
		WriteMB: q.Profile.WriteBytes / mbF,
		Par:     q.Profile.Parallelizable,
		Indexed: q.Profile.IndexFriendly,
	}
}

func (r TraceRecord) toQuery() Query {
	tpl := sqlparse.TemplateOf(r.SQL)
	return Query{
		SQL:      r.SQL,
		Class:    tpl.Class,
		Template: tpl,
		Profile: Profile{
			MemDemand:      r.MemMB * mbF,
			MaintMem:       r.MaintMB * mbF,
			TempBytes:      r.TempMB * mbF,
			ReadBytes:      r.ReadMB * mbF,
			WriteBytes:     r.WriteMB * mbF,
			Parallelizable: r.Par,
			IndexFriendly:  r.Indexed,
		},
	}
}

// RecordTrace samples n queries from gen and writes them as JSON lines.
func RecordTrace(w io.Writer, gen Generator, rng *rand.Rand, n int) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := 0; i < n; i++ {
		if err := enc.Encode(toRecord(gen.Sample(rng))); err != nil {
			return fmt.Errorf("workload: record trace: %w", err)
		}
	}
	obs.Debugf("workload: recorded %d-query trace from %s", n, gen.Name())
	return bw.Flush()
}

// Trace is a replayable recorded workload.
type Trace struct {
	name    string
	dbSize  float64
	rate    float64
	queries []Query
}

// LoadTrace reads a JSON-lines trace. name, dbSize and rate describe the
// replay identity (traces don't carry deployment parameters).
func LoadTrace(r io.Reader, name string, dbSize, rate float64) (*Trace, error) {
	if dbSize <= 0 || rate <= 0 {
		return nil, errors.New("workload: trace needs positive dbSize and rate")
	}
	var queries []Query
	dec := json.NewDecoder(bufio.NewReader(r))
	for {
		var rec TraceRecord
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("workload: load trace: %w", err)
		}
		queries = append(queries, rec.toQuery())
	}
	if len(queries) == 0 {
		return nil, errors.New("workload: empty trace")
	}
	obs.Debugf("workload: loaded trace %q: %d queries, db %.0f MB, %.0f req/s", name, len(queries), dbSize/mbF, rate)
	return &Trace{name: name, dbSize: dbSize, rate: rate, queries: queries}, nil
}

// Name implements Generator.
func (t *Trace) Name() string { return t.name }

// DBSizeBytes implements Generator.
func (t *Trace) DBSizeBytes() float64 { return t.dbSize }

// RequestRate implements Generator.
func (t *Trace) RequestRate(time.Time) float64 { return t.rate }

// Len returns the number of recorded queries.
func (t *Trace) Len() int { return len(t.queries) }

// Sample implements Generator: uniform draw over the recorded queries
// (replay with the trace's empirical mix).
func (t *Trace) Sample(rng *rand.Rand) (q Query) { t.SampleInto(rng, &q); return q }

// SampleInto implements Generator.
func (t *Trace) SampleInto(rng *rand.Rand, q *Query) {
	*q = t.queries[rng.Intn(len(t.queries))]
}
