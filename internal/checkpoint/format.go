// Package checkpoint implements the fleet snapshot & deterministic
// resume subsystem: a versioned, sectioned, length-prefixed container
// holding the entire mutable state of a core.System — per-instance
// simulated engines (virtual clocks and PRNG stream positions
// included), tuner models, director shards, repository fan-out
// watermarks, monitor sample counts and orchestrator persistence — such that
// restoring a snapshot into a freshly rebuilt System and stepping
// forward produces bit-for-bit the same fleet fingerprint as the
// uninterrupted run, at any parallelism, clean or under fault
// injection.
//
// The container format is:
//
//	header:  magic "ADBC" | format version (uint16 LE)
//	section: name len (uint16 LE) | name | payload len (uint64 LE) |
//	         payload | CRC-32 (IEEE, uint32 LE) of the payload
//
// The first section is always the manifest: a JSON document recording
// the format version, the window index, the fleet topology the snapshot
// was taken from, and the (name, length, checksum) triple of every
// following section. Readers verify each section against the manifest,
// so a truncated file, a flipped byte or a version skew all fail with
// an error naming the precise section, never with silently wrong state.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// FormatVersion is the container version this build writes and the only
// one it restores. Version 3 stores an instance's master metric snapshot
// once, in its TDE state; version 2 also stored the agent's copy, and
// version 1 wrote instance sections as JSON, not in instance.go's codec.
const FormatVersion = 3

var magic = [4]byte{'A', 'D', 'B', 'C'}

// Sentinel errors; all reader failures wrap one of these, with the
// offending section named in the message.
var (
	// ErrBadMagic: the stream is not an AutoDBaaS checkpoint at all.
	ErrBadMagic = errors.New("checkpoint: bad magic (not a checkpoint file)")
	// ErrVersion: the container was written by an incompatible build.
	ErrVersion = errors.New("checkpoint: unsupported format version")
	// ErrTruncated: the stream ended inside a section.
	ErrTruncated = errors.New("checkpoint: truncated")
	// ErrChecksum: a section's payload does not match its CRC.
	ErrChecksum = errors.New("checkpoint: checksum mismatch")
	// ErrManifest: the manifest disagrees with the stream or with the
	// System being restored into (topology, tuner fleet, section list).
	ErrManifest = errors.New("checkpoint: manifest mismatch")
)

// SectionMeta is one section's entry in the manifest.
type SectionMeta struct {
	Name   string `json:"name"`
	Length uint64 `json:"length"`
	CRC32  uint32 `json:"crc32"`
}

// InstanceMeta pins one fleet member's topology so a snapshot cannot be
// restored into a differently-built System. Gen is the membership
// generation at which the member last (re-)joined the fleet — it tells
// a pre-resize cohort apart from a post-resize one even when the plan
// happens to match.
type InstanceMeta struct {
	ID     string `json:"id"`
	Engine string `json:"engine"`
	Plan   string `json:"plan"`
	Slaves int    `json:"slaves"`
	Gen    int    `json:"gen,omitempty"`
}

// Manifest is the snapshot's self-description, serialized as the first
// section of the container. Generation is the fleet membership
// generation at snapshot time; Instances is the cohort alive at the
// snapshot's window, in onboarding order.
type Manifest struct {
	FormatVersion int            `json:"format_version"`
	Window        int            `json:"window"`
	Generation    int            `json:"generation,omitempty"`
	Tuners        []string       `json:"tuners,omitempty"`
	Instances     []InstanceMeta `json:"instances,omitempty"`
	HasFaults     bool           `json:"has_faults"`
	Sections      []SectionMeta  `json:"sections,omitempty"`
}

// section is one named payload staged for writing: its bytes, split
// across several slices when it is a nested container, with the total
// length and CRC-32 known before any byte is written.
type section struct {
	name  string
	parts [][]byte
	n     uint64
	crc   uint32
}

// bytesSection stages a contiguous payload, checksumming it once.
func bytesSection(name string, payload []byte) section {
	return section{name: name, parts: [][]byte{payload}, n: uint64(len(payload)), crc: crc32.ChecksumIEEE(payload)}
}

const manifestSection = "manifest"

// Container is one fully staged snapshot container. Its frames point at
// the section payloads instead of copying them into one buffer, so
// nesting a container as a section of another (the shard coordinator's
// fleet snapshot) copies nothing, and WriteTo streams every byte once.
type Container struct {
	parts [][]byte
	n     int64
}

// stage lays out the header, the manifest (with section metadata filled
// in) and every section.
func stage(man Manifest, sections []section) (*Container, error) {
	man.FormatVersion = FormatVersion
	man.Sections = man.Sections[:0]
	for _, s := range sections {
		man.Sections = append(man.Sections, SectionMeta{Name: s.name, Length: s.n, CRC32: s.crc})
	}
	manPayload, err := json.Marshal(man)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode manifest: %w", err)
	}
	c := &Container{}
	c.add(binary.LittleEndian.AppendUint16(append([]byte(nil), magic[:]...), FormatVersion))
	c.addSection(bytesSection(manifestSection, manPayload))
	for _, s := range sections {
		c.addSection(s)
	}
	return c, nil
}

func (c *Container) add(p []byte) {
	c.parts = append(c.parts, p)
	c.n += int64(len(p))
}

// addSection frames one section: name length (uint16), name, payload
// length (uint64), payload, CRC-32 of the payload.
func (c *Container) addSection(s section) {
	head := binary.LittleEndian.AppendUint16(make([]byte, 0, 2+len(s.name)+8), uint16(len(s.name)))
	head = append(head, s.name...)
	c.add(binary.LittleEndian.AppendUint64(head, s.n))
	for _, p := range s.parts {
		c.add(p)
	}
	c.add(binary.LittleEndian.AppendUint32(nil, s.crc))
}

// nested stages the whole container as one section of another. Its
// CRC-32 runs over the parts in place; nothing is joined.
func (c *Container) nested(name string) section {
	var crc uint32
	for _, p := range c.parts {
		crc = crc32.Update(crc, crc32.IEEETable, p)
	}
	return section{name: name, parts: c.parts, n: uint64(c.n), crc: crc}
}

// Len returns the container's size in bytes.
func (c *Container) Len() int64 { return c.n }

// WriteTo implements io.WriterTo.
func (c *Container) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for _, p := range c.parts {
		m, err := w.Write(p)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// Bytes joins the container into one exactly sized slice — for callers
// that must hand the snapshot on as bytes (the shard RPC protocol).
func (c *Container) Bytes() []byte {
	out := make([]byte, 0, c.n)
	for _, p := range c.parts {
		out = append(out, p...)
	}
	return out
}

// RawSection is one named section for NewContainer — the
// coordinator-level snapshot API. Payload holds a plain section; Nested,
// when set, makes a whole staged container the section. The shard
// coordinator nests each shard's full snapshot as a "shard/<name>"
// section of an outer container, so the multi-process control plane
// gets the same header, manifest, length and CRC verification as a
// single-process snapshot, with no second serialization format and no
// copy of the inner container.
type RawSection struct {
	Name    string
	Payload []byte
	Nested  *Container
}

// NewContainer stages a container holding the given manifest (section
// metadata is filled in) and sections. Readers use Parse or Inspect.
func NewContainer(man Manifest, secs []RawSection) (*Container, error) {
	staged := make([]section, 0, len(secs))
	for _, s := range secs {
		if s.Nested != nil {
			staged = append(staged, s.Nested.nested(s.Name))
		} else {
			staged = append(staged, bytesSection(s.Name, s.Payload))
		}
	}
	return stage(man, staged)
}

// Inspect reads a whole snapshot container from r and verifies it (see
// Parse).
func Inspect(r io.Reader) (Manifest, map[string][]byte, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Manifest{}, nil, err
	}
	return Parse(data)
}

// Parse verifies a snapshot container held in memory — header,
// manifest, section list, lengths and checksums — without restoring
// anything, and returns the manifest and the sections by name. Each
// payload is checksummed once, and the sections alias data instead of
// copying it, so a nested container (a shard snapshot inside a fleet
// snapshot) is handed on as it sits in the file. The elastic fleet
// service uses it to recover its own control-plane section before the
// engine restores from the same sections.
func Parse(data []byte) (Manifest, map[string][]byte, error) {
	man, sections, err := parse(data)
	if err != nil {
		ckptMetrics()
		mCorrupt.Inc()
	}
	return man, sections, err
}

func parse(data []byte) (Manifest, map[string][]byte, error) {
	var man Manifest
	if len(data) < 6 {
		return man, nil, fmt.Errorf("%w: stream ended inside the header", ErrTruncated)
	}
	if !bytes.Equal(data[:4], magic[:]) {
		return man, nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != FormatVersion {
		return man, nil, fmt.Errorf("%w: file is v%d, this build reads v%d", ErrVersion, v, FormatVersion)
	}
	r := frameReader{rest: data[6:]}
	name, payload, _, err := r.next(manifestSection)
	if err != nil {
		return man, nil, err
	}
	if name != manifestSection {
		return man, nil, fmt.Errorf("%w: first section is %q, want %q", ErrManifest, name, manifestSection)
	}
	if err := json.Unmarshal(payload, &man); err != nil {
		return man, nil, fmt.Errorf("%w: manifest payload: %v", ErrManifest, err)
	}
	if man.FormatVersion != FormatVersion {
		return man, nil, fmt.Errorf("%w: manifest says v%d, this build reads v%d", ErrVersion, man.FormatVersion, FormatVersion)
	}
	sections := make(map[string][]byte, len(man.Sections))
	for _, meta := range man.Sections {
		name, payload, crc, err := r.next(meta.Name)
		if err != nil {
			return man, nil, err
		}
		if name != meta.Name {
			return man, nil, fmt.Errorf("%w: manifest lists section %q, stream has %q", ErrManifest, meta.Name, name)
		}
		if uint64(len(payload)) != meta.Length {
			return man, nil, fmt.Errorf("%w: section %q is %d bytes, manifest says %d", ErrManifest, name, len(payload), meta.Length)
		}
		if crc != meta.CRC32 {
			return man, nil, fmt.Errorf("%w: section %q does not match its manifest checksum", ErrChecksum, name)
		}
		sections[name] = payload
	}
	return man, sections, nil
}

// frameReader slices section frames off the front of a container.
type frameReader struct{ rest []byte }

// next reads one frame, verifies its payload against the frame's CRC
// and returns that CRC for the manifest cross-check. ctx names what the
// caller was expecting, for precise truncation errors.
func (r *frameReader) next(ctx string) (name string, payload []byte, crc uint32, err error) {
	b := r.rest
	if len(b) < 2 {
		return "", nil, 0, fmt.Errorf("%w: stream ended before section %q", ErrTruncated, ctx)
	}
	nameLen := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if len(b) < nameLen {
		return "", nil, 0, fmt.Errorf("%w: stream ended inside the name of section %q", ErrTruncated, ctx)
	}
	name, b = string(b[:nameLen]), b[nameLen:]
	if len(b) < 8 {
		return name, nil, 0, fmt.Errorf("%w: stream ended inside the header of section %q", ErrTruncated, name)
	}
	n := binary.LittleEndian.Uint64(b)
	b = b[8:]
	if n > uint64(len(b)) {
		return name, nil, 0, fmt.Errorf("%w: stream ended inside the payload of section %q", ErrTruncated, name)
	}
	payload, b = b[:n:n], b[n:]
	if len(b) < 4 {
		return name, nil, 0, fmt.Errorf("%w: stream ended before the checksum of section %q", ErrTruncated, name)
	}
	crc = crc32.ChecksumIEEE(payload)
	if want := binary.LittleEndian.Uint32(b); crc != want {
		return name, nil, 0, fmt.Errorf("%w: section %q (stored %08x, computed %08x)", ErrChecksum, name, want, crc)
	}
	r.rest = b[4:]
	return name, payload, crc, nil
}
