package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		[]byte("x"),
		[]byte(`{"id":1,"method":"step","params":{"dur_ns":300000000000}}`),
		bytes.Repeat([]byte{0xAB}, 3<<20),   // multi-chunk payload
		bytes.Repeat([]byte{0xCD}, 5<<20+7), // grows past several doublings
	}
	for _, want := range payloads {
		for _, typ := range []byte{FrameRequest, FrameResponse, FrameBlob} {
			var buf bytes.Buffer
			if err := WriteFrame(&buf, typ, want); err != nil {
				t.Fatalf("write %d bytes: %v", len(want), err)
			}
			gotTyp, got, err := ReadFrame(&buf)
			if err != nil {
				t.Fatalf("read %d bytes: %v", len(want), err)
			}
			if gotTyp != typ {
				t.Fatalf("type = %d, want %d", gotTyp, typ)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("payload mismatch at %d bytes", len(want))
			}
		}
	}
}

func TestFrameCleanEOF(t *testing.T) {
	_, _, err := ReadFrame(bytes.NewReader(nil))
	if err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
}

func TestFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameResponse, []byte("hello worker")); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	// Every proper prefix except the empty one must fail with
	// ErrWireTruncated (cutting inside the header, name, payload or CRC).
	for cut := 1; cut < len(whole); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(whole[:cut]))
		if !errors.Is(err, ErrWireTruncated) {
			t.Fatalf("cut at %d/%d: err = %v, want ErrWireTruncated", cut, len(whole), err)
		}
	}
}

func TestFrameChecksumMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameRequest, []byte("checksummed payload")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[frameHeaderLen+3] ^= 0x40 // flip one payload bit
	_, _, err := ReadFrame(bytes.NewReader(raw))
	if !errors.Is(err, ErrWireChecksum) {
		t.Fatalf("err = %v, want ErrWireChecksum", err)
	}
}

func TestFrameBadMagicAndVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameRequest, []byte("x")); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), buf.Bytes()...)
	bad[0] = 'X'
	if _, _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrWireMagic) {
		t.Fatalf("magic: err = %v, want ErrWireMagic", err)
	}
	bad = append([]byte(nil), buf.Bytes()...)
	bad[4] = WireVersion + 1
	if _, _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrWireVersion) {
		t.Fatalf("version: err = %v, want ErrWireVersion", err)
	}
	// A v1 peer knows no blob frames; its header is turned away before
	// anything past it is read.
	bad[4] = 1
	if _, _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrWireVersion) {
		t.Fatalf("v1 header: err = %v, want ErrWireVersion", err)
	}
}

// TestFrameOversizedClaim pins the allocation bound: a header claiming
// a payload beyond MaxFrame is rejected before any payload allocation,
// and a header lying upward about a small payload fails by truncation
// after allocating at most one chunk — never the claimed size.
func TestFrameOversizedClaim(t *testing.T) {
	var hdr [frameHeaderLen]byte
	copy(hdr[:4], wireMagic[:])
	hdr[4] = WireVersion
	hdr[5] = FrameRequest
	binary.LittleEndian.PutUint32(hdr[6:], MaxFrame+1)
	_, _, err := ReadFrame(bytes.NewReader(hdr[:]))
	if !errors.Is(err, ErrWireOversized) {
		t.Fatalf("err = %v, want ErrWireOversized", err)
	}

	// Claim 64 MiB, deliver 10 bytes: must fail truncated, not OOM.
	binary.LittleEndian.PutUint32(hdr[6:], 64<<20)
	stream := append(append([]byte(nil), hdr[:]...), []byte("short read")...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err = ReadFrame(bytes.NewReader(stream))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrWireTruncated) {
		t.Fatalf("err = %v, want ErrWireTruncated", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Fatalf("a 64 MiB claim with a 10-byte body allocated %d bytes, want < 2 MiB", got)
	}
	if err := WriteFrame(io.Discard, FrameRequest, make([]byte, MaxFrame+1)); !errors.Is(err, ErrWireOversized) {
		t.Fatalf("write: err = %v, want ErrWireOversized", err)
	}
}

// FuzzDecodeFrame throws arbitrary bytes at the frame decoder: it must
// reject truncated, oversized and bit-rotted frames with a wire error
// (or io.EOF on an empty stream) and must round-trip anything it
// accepts — without allocation blowups on lying length fields, which
// the 64 MiB claim in TestFrameOversizedClaim pins and the fuzzer
// explores further.
func FuzzDecodeFrame(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteFrame(&seed, FrameRequest, []byte(`{"id":7,"method":"ping"}`))
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte("ADBW"))
	f.Add(seed.Bytes()[:frameHeaderLen])
	trunc := append([]byte(nil), seed.Bytes()...)
	binary.LittleEndian.PutUint32(trunc[6:], 1<<27) // huge claim, tiny body
	f.Add(trunc)
	var blob bytes.Buffer
	_ = WriteFrame(&blob, FrameBlob, []byte("ADBC\x00\x01 shard container bytes"))
	f.Add(blob.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted frames must re-encode to a decodable frame with the
		// same content.
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, payload); err != nil {
			t.Fatalf("re-encode accepted frame: %v", err)
		}
		typ2, payload2, err := ReadFrame(&buf)
		if err != nil || typ2 != typ || !bytes.Equal(payload, payload2) {
			t.Fatalf("round-trip mismatch: err=%v", err)
		}
	})
}

// FuzzServeConn feeds arbitrary byte streams to an uninitialised
// worker's connection loop: whatever the bytes — stray blobs, a
// "restore" whose blob never comes or comes as the wrong frame type,
// truncated or lying headers — the loop must neither panic nor hang,
// and it returns once the client hangs up.
func FuzzServeConn(f *testing.F) {
	frame := func(typ byte, payload string) []byte {
		var buf bytes.Buffer
		_ = WriteFrame(&buf, typ, []byte(payload))
		return buf.Bytes()
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	ping := frame(FrameRequest, `{"id":1,"method":"ping"}`)
	restore := frame(FrameRequest, `{"id":2,"method":"restore"}`)
	f.Add(ping)
	f.Add(cat(ping, frame(FrameRequest, `{"id":2,"method":"checkpoint"}`)))
	f.Add(cat(restore, frame(FrameBlob, "ADBC not a container"), ping))
	f.Add(cat(restore, ping))
	f.Add(restore)
	f.Add(frame(FrameBlob, "stray blob"))
	f.Add(cat(ping[:frameHeaderLen], []byte("short")))
	f.Add([]byte("garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			NewServer().handleConn(server)
		}()
		go io.Copy(io.Discard, client)
		client.SetDeadline(time.Now().Add(2 * time.Second))
		client.Write(data)
		client.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("connection loop still running after the client hung up")
		}
	})
}
