package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
	"testing"
)

func sampleContainer(t testing.TB) []byte {
	t.Helper()
	man := Manifest{Window: 42, Tuners: []string{"ottertune-bo"}}
	c, err := NewContainer(man, []RawSection{
		{Name: "alpha", Payload: []byte("alpha-payload")},
		{Name: "beta", Payload: bytes.Repeat([]byte{0xAB}, 300)},
		{Name: "empty"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := c.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != c.Len() || !bytes.Equal(buf.Bytes(), mustBytes(t, c)) {
		t.Fatalf("WriteTo wrote %d bytes, Len says %d; Bytes agrees: %v", n, c.Len(), bytes.Equal(buf.Bytes(), mustBytes(t, c)))
	}
	return buf.Bytes()
}

// mustBytes writes a staged container into one slice.
func mustBytes(t testing.TB, c *Container) []byte {
	t.Helper()
	b, err := c.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestContainerRoundTrip(t *testing.T) {
	data := sampleContainer(t)
	man, sections, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if man.Window != 42 || len(man.Tuners) != 1 {
		t.Fatalf("manifest = %+v", man)
	}
	if string(sections["alpha"]) != "alpha-payload" || len(sections["beta"]) != 300 {
		t.Fatalf("sections = %v", sections)
	}
	if got, ok := sections["empty"]; !ok || len(got) != 0 {
		t.Fatalf("empty section = %v, %v", got, ok)
	}
}

func TestContainerRejectsCorruption(t *testing.T) {
	data := sampleContainer(t)

	if _, _, err := Parse(data[:len(data)-3]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated tail: %v", err)
	}
	if _, _, err := Inspect(bytes.NewReader(data[:2])); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated header: %v", err)
	}

	flip := append([]byte(nil), data...)
	flip[len(flip)-310] ^= 0x01 // inside beta's payload
	if _, _, err := Parse(flip); !errors.Is(err, ErrChecksum) {
		t.Errorf("flipped byte: %v", err)
	} else if !strings.Contains(err.Error(), "beta") {
		t.Errorf("error does not name the section: %v", err)
	}

	skew := append([]byte(nil), data...)
	binary.LittleEndian.PutUint16(skew[4:6], FormatVersion+9)
	if _, _, err := Parse(skew); !errors.Is(err, ErrVersion) {
		t.Errorf("version skew: %v", err)
	}

	garbled := append([]byte(nil), data...)
	garbled[1] = '!'
	if _, _, err := Parse(garbled); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}
}

// TestNestedContainer: a staged container nested as a section reads
// back byte-for-byte as the inner container, without being joined
// first, and the inner container parses on its own.
func TestNestedContainer(t *testing.T) {
	inner, err := NewContainer(Manifest{Window: 3}, []RawSection{{Name: "alpha", Payload: []byte("alpha-payload")}})
	if err != nil {
		t.Fatal(err)
	}
	outer, err := NewContainer(Manifest{Window: 3}, []RawSection{
		{Name: "control", Payload: []byte(`{}`)},
		{Name: "shard/s0", Nested: inner},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, sections, err := Parse(mustBytes(t, outer))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sections["shard/s0"], mustBytes(t, inner)) {
		t.Fatal("nested section differs from the inner container's bytes")
	}
	man, innerSecs, err := Parse(sections["shard/s0"])
	if err != nil {
		t.Fatal(err)
	}
	if man.Window != 3 || string(innerSecs["alpha"]) != "alpha-payload" {
		t.Fatalf("inner container = %+v, %v", man, innerSecs)
	}
}

// TestParseRejectsV1: a container whose header says version 1 (JSON
// instance sections), 2 (an agent copy of the metric snapshot) or 3 (a
// CRC-32 per section in the manifest) fails with ErrVersion, and the
// error names the version.
func TestParseRejectsV1(t *testing.T) {
	for _, v := range []uint16{1, 2, 3} {
		old := append([]byte(nil), sampleContainer(t)...)
		binary.LittleEndian.PutUint16(old[4:6], v)
		_, _, err := Parse(old)
		if name := fmt.Sprintf("v%d", v); !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), name) {
			t.Fatalf("want ErrVersion naming %s, got %v", name, err)
		}
	}
}

// streamed is a payload produced as it is written, in pieces, the way
// the repository store section is: size bytes of a counter pattern,
// announced as len.
type streamed struct {
	len, size int64
	writes    int
}

func (s *streamed) Len() int64 { return s.len }

func (s *streamed) WriteTo(w io.Writer) (int64, error) {
	var n int64
	piece := make([]byte, 0, 7)
	for i := int64(0); i < s.size; i++ {
		piece = append(piece, byte(i))
		if len(piece) == cap(piece) || i == s.size-1 {
			m, err := w.Write(piece)
			n += int64(m)
			s.writes++
			if err != nil {
				return n, err
			}
			piece = piece[:0]
		}
	}
	return n, nil
}

// stagedMix stages a container holding a bytes section, a streamed
// section and a nested container.
func stagedMix(t testing.TB, body payload) *Container {
	t.Helper()
	inner, err := NewContainer(Manifest{Window: 1}, []RawSection{{Name: "alpha", Payload: []byte("alpha-payload")}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := stage(Manifest{Window: 2}, []section{
		{name: "bytes", body: rawBytes("some bytes")},
		{name: "stream", body: body},
		{name: "shard/s0", body: inner},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestStreamedSection: a section written in pieces as the container is
// written reads back whole, its frame CRC taken over the pieces, and
// the manifest lists its name and staged length.
func TestStreamedSection(t *testing.T) {
	body := &streamed{len: 100, size: 100}
	data := mustBytes(t, stagedMix(t, body))
	if body.writes < 2 {
		t.Fatalf("the streamed section was written in %d piece(s)", body.writes)
	}
	man, sections, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 100)
	for i := range want {
		want[i] = byte(i)
	}
	if !bytes.Equal(sections["stream"], want) || string(sections["bytes"]) != "some bytes" {
		t.Fatalf("sections = %q", sections)
	}
	if got := man.Sections[1]; got != (SectionMeta{Name: "stream", Length: 100}) {
		t.Fatalf("manifest entry = %+v", got)
	}
	if _, inner, err := Parse(sections["shard/s0"]); err != nil || string(inner["alpha"]) != "alpha-payload" {
		t.Fatalf("nested container: %v, %q", err, inner)
	}
}

// TestStreamedSectionWrongLength: a section that writes fewer or more
// bytes than it staged fails the write with an error naming it.
func TestStreamedSectionWrongLength(t *testing.T) {
	for _, size := range []int64{99, 101} {
		_, err := stagedMix(t, &streamed{len: 100, size: size}).WriteTo(io.Discard)
		if err == nil || !strings.Contains(err.Error(), `"stream"`) {
			t.Errorf("a %d-byte section staged as 100 bytes: err = %v, want one naming the section", size, err)
		}
	}
}

// FuzzParseContainer: Parse never panics, and whatever it accepts is a
// header and then frames, each with a valid CRC, the manifest first and
// then exactly the sections it lists, by name and length, with nothing
// after them.
func FuzzParseContainer(f *testing.F) {
	valid := mustBytes(f, stagedMix(f, &streamed{len: 40, size: 40}))
	f.Add(valid)
	f.Add(append(valid[:len(valid):len(valid)], 0))
	f.Add(sampleContainer(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		man, sections, err := Parse(data)
		if err != nil {
			return
		}
		rest := data[6:]
		walk := func() (string, []byte) {
			name := string(rest[2 : 2+binary.LittleEndian.Uint16(rest)])
			b := rest[2+len(name):]
			n := binary.LittleEndian.Uint64(b)
			payload, crc := b[8:8+n], binary.LittleEndian.Uint32(b[8+n:])
			if crc32.ChecksumIEEE(payload) != crc {
				t.Fatalf("accepted section %q with a bad CRC", name)
			}
			rest = b[8+n+4:]
			return name, payload
		}
		if name, _ := walk(); name != manifestSection {
			t.Fatalf("accepted a container whose first section is %q", name)
		}
		for _, meta := range man.Sections {
			name, payload := walk()
			if name != meta.Name || uint64(len(payload)) != meta.Length || !bytes.Equal(sections[name], payload) {
				t.Fatalf("accepted section %q (%d bytes) against manifest entry %+v", name, len(payload), meta)
			}
		}
		if len(rest) != 0 {
			t.Fatalf("accepted %d bytes after the last section", len(rest))
		}
	})
}
