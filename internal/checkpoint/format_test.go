package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func sampleContainer(t *testing.T) []byte {
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
	if n != c.Len() || !bytes.Equal(buf.Bytes(), c.Bytes()) {
		t.Fatalf("WriteTo wrote %d bytes, Len says %d; Bytes agrees: %v", n, c.Len(), bytes.Equal(buf.Bytes(), c.Bytes()))
	}
	return buf.Bytes()
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
	_, sections, err := Parse(outer.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sections["shard/s0"], inner.Bytes()) {
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
// instance sections) or 2 (an agent copy of the metric snapshot) fails
// with ErrVersion, and the error names the version.
func TestParseRejectsV1(t *testing.T) {
	for _, v := range []uint16{1, 2} {
		old := append([]byte(nil), sampleContainer(t)...)
		binary.LittleEndian.PutUint16(old[4:6], v)
		_, _, err := Parse(old)
		if name := fmt.Sprintf("v%d", v); !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), name) {
			t.Fatalf("want ErrVersion naming %s, got %v", name, err)
		}
	}
}
