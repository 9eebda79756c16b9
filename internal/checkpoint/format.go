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
// was taken from, and the (name, length) pair of every following
// section. Each frame carries its payload's CRC after the payload, so a
// section's checksum is computed as its bytes are written, and a
// section too large to hold in memory (the repository store) streams
// from live state into the file. Readers verify each frame's CRC and
// each section's name and length against the manifest, so a truncated
// file, a flipped byte or a version skew all fail with an error naming
// the precise section, never with silently wrong state.
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
// one it restores. Version 4 drops the manifest's per-section CRC-32,
// which left only each frame's own CRC to check, so the manifest can be
// written before any payload exists; version 3 stored an instance's
// master metric snapshot once, version 2 also stored the agent's copy,
// and version 1 wrote instance sections as JSON.
const FormatVersion = 4

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

// payload is one section's body: its exact length, known when it is
// staged, and a WriteTo that writes exactly that many bytes. Contiguous
// bytes, a nested container and a section encoded from live state as
// it is written (the repository store) are its three kinds.
type payload interface {
	Len() int64
	io.WriterTo
}

// rawBytes is a contiguous payload.
type rawBytes []byte

func (b rawBytes) Len() int64 { return int64(len(b)) }

func (b rawBytes) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(b)
	return int64(n), err
}

// section is one named payload staged for writing.
type section struct {
	name string
	body payload
}

const manifestSection = "manifest"

// Container is one staged snapshot container: the header and manifest,
// and each section's name and payload, whose bytes are produced only
// when the container is written. Nesting a container as a section of
// another (the shard coordinator's fleet snapshot) copies nothing, and
// WriteTo produces every byte once, checksumming each frame's payload
// as it passes through.
//
// A staged container may read live state — the repository store
// section does, under the store's read lock while it streams — so it
// must be written before the state it was staged from next changes: a
// snapshot holds the step lock with the fan-out flushed from staging to
// the last byte. A section that writes other than its staged length
// fails the write with an error naming it, never a wrong file.
type Container struct {
	head     []byte // magic, version and the manifest frame
	sections []section
	n        int64
}

// frameOverhead is a frame's length beyond its name and payload: the
// name length, the payload length and the CRC.
const frameOverhead = 2 + 8 + 4

// stage lays out the header, the manifest (with section metadata filled
// in) and every section.
func stage(man Manifest, sections []section) (*Container, error) {
	man.FormatVersion = FormatVersion
	man.Sections = man.Sections[:0]
	c := &Container{sections: sections}
	for _, s := range sections {
		man.Sections = append(man.Sections, SectionMeta{Name: s.name, Length: uint64(s.body.Len())})
		c.n += frameOverhead + int64(len(s.name)) + s.body.Len()
	}
	manPayload, err := json.Marshal(man)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode manifest: %w", err)
	}
	head := binary.LittleEndian.AppendUint16(append([]byte(nil), magic[:]...), FormatVersion)
	head = appendFrameHead(head, manifestSection, int64(len(manPayload)))
	head = append(head, manPayload...)
	c.head = binary.LittleEndian.AppendUint32(head, crc32.ChecksumIEEE(manPayload))
	c.n += int64(len(c.head))
	return c, nil
}

// appendFrameHead writes what precedes a payload in its frame: the name
// length (uint16), the name and the payload length (uint64).
func appendFrameHead(b []byte, name string, n int64) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(name)))
	b = append(b, name...)
	return binary.LittleEndian.AppendUint64(b, uint64(n))
}

// Len returns the container's size in bytes.
func (c *Container) Len() int64 { return c.n }

// WriteTo implements io.WriterTo: each frame's head, its payload as the
// payload writes itself, then the CRC-32 taken over those bytes.
func (c *Container) WriteTo(w io.Writer) (int64, error) {
	m, err := w.Write(c.head)
	n := int64(m)
	if err != nil {
		return n, err
	}
	var frame []byte
	for _, s := range c.sections {
		frame = appendFrameHead(frame[:0], s.name, s.body.Len())
		m, err := w.Write(frame)
		n += int64(m)
		if err != nil {
			return n, err
		}
		fw := frameWriter{w: w, left: s.body.Len()}
		_, err = s.body.WriteTo(&fw)
		n += s.body.Len() - fw.left
		switch {
		case fw.err != nil:
			return n, fmt.Errorf("checkpoint: section %q: %w", s.name, fw.err)
		case err != nil:
			return n, fmt.Errorf("checkpoint: section %q: %w", s.name, err)
		case fw.left != 0:
			return n, fmt.Errorf("checkpoint: section %q wrote %d bytes, staged %d", s.name, s.body.Len()-fw.left, s.body.Len())
		}
		frame = binary.LittleEndian.AppendUint32(frame[:0], fw.crc)
		m, err = w.Write(frame)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// frameWriter passes one section's payload through to w, checksumming
// it and refusing bytes past its staged length.
type frameWriter struct {
	w    io.Writer
	left int64
	crc  uint32
	err  error // the first error, which every later Write repeats
}

func (f *frameWriter) Write(p []byte) (int, error) {
	if f.err != nil {
		return 0, f.err
	}
	if int64(len(p)) > f.left {
		f.err = fmt.Errorf("a write of %d bytes overruns the %d left of its staged length", len(p), f.left)
		return 0, f.err
	}
	n, err := f.w.Write(p)
	f.crc = crc32.Update(f.crc, crc32.IEEETable, p[:n])
	f.left -= int64(n)
	f.err = err
	return n, err
}

// Bytes writes the container into one exactly sized slice — for
// callers that must hand the snapshot on as bytes (the shard RPC
// protocol).
func (c *Container) Bytes() ([]byte, error) {
	b := bytes.NewBuffer(make([]byte, 0, c.n))
	if _, err := c.WriteTo(b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// RawSection is one named section for NewContainer — the
// coordinator-level snapshot API. Payload holds a plain section; Nested,
// when set, makes a whole staged container the section. The shard
// coordinator nests each shard's full snapshot as a "shard/<name>"
// section of an outer container, so the multi-process control plane
// gets the same header, manifest, length and CRC verification as a
// single-process snapshot, with no second serialization format and no
// copy of the inner container: its bytes are checksummed as the outer
// container writes them.
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
			staged = append(staged, section{name: s.Name, body: s.Nested})
		} else {
			staged = append(staged, section{name: s.Name, body: rawBytes(s.Payload)})
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
	name, payload, err := r.next(manifestSection)
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
		name, payload, err := r.next(meta.Name)
		if err != nil {
			return man, nil, err
		}
		if name != meta.Name {
			return man, nil, fmt.Errorf("%w: manifest lists section %q, stream has %q", ErrManifest, meta.Name, name)
		}
		if uint64(len(payload)) != meta.Length {
			return man, nil, fmt.Errorf("%w: section %q is %d bytes, manifest says %d", ErrManifest, name, len(payload), meta.Length)
		}
		sections[name] = payload
	}
	if len(r.rest) > 0 {
		return man, nil, fmt.Errorf("%w: %d bytes after the last section", ErrManifest, len(r.rest))
	}
	return man, sections, nil
}

// frameReader slices section frames off the front of a container.
type frameReader struct{ rest []byte }

// next reads one frame and verifies its payload against the frame's
// CRC. ctx names what the caller was expecting, for precise truncation
// errors.
func (r *frameReader) next(ctx string) (name string, payload []byte, err error) {
	b := r.rest
	if len(b) < 2 {
		return "", nil, fmt.Errorf("%w: stream ended before section %q", ErrTruncated, ctx)
	}
	nameLen := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if len(b) < nameLen {
		return "", nil, fmt.Errorf("%w: stream ended inside the name of section %q", ErrTruncated, ctx)
	}
	name, b = string(b[:nameLen]), b[nameLen:]
	if len(b) < 8 {
		return name, nil, fmt.Errorf("%w: stream ended inside the header of section %q", ErrTruncated, name)
	}
	n := binary.LittleEndian.Uint64(b)
	b = b[8:]
	if n > uint64(len(b)) {
		return name, nil, fmt.Errorf("%w: stream ended inside the payload of section %q", ErrTruncated, name)
	}
	payload, b = b[:n:n], b[n:]
	if len(b) < 4 {
		return name, nil, fmt.Errorf("%w: stream ended before the checksum of section %q", ErrTruncated, name)
	}
	if want, crc := binary.LittleEndian.Uint32(b), crc32.ChecksumIEEE(payload); crc != want {
		return name, nil, fmt.Errorf("%w: section %q (stored %08x, computed %08x)", ErrChecksum, name, want, crc)
	}
	r.rest = b[4:]
	return name, payload, nil
}
