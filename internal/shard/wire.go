package shard

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// The coordinator–worker wire protocol is a strict request/response
// exchange of length-prefixed, CRC-trailed frames over one TCP or unix
// stream:
//
//	frame: magic "ADBW" | version (1 byte) | type (1 byte) |
//	       payload len (uint32 LE) | payload | CRC-32 (IEEE, uint32 LE)
//	       of the payload
//
// Request and response payloads are JSON (rpcRequest / rpcResponse).
// Shard snapshots never pass through JSON: a "restore" request and a
// "checkpoint" response are each followed by exactly one FrameBlob whose
// payload is the shard's ADBC container as is (empty after a
// "checkpoint" response that carries an error). The envelope is binary
// so a reader can reject garbage, truncation, oversized claims and bit
// rot before touching a JSON decoder or a container parser. A frame
// header lying about its length cannot force a giant allocation: the
// payload buffer grows as bytes actually arrive, and the decoder gives
// up at the first short read.

// WireVersion is the protocol version this build speaks. Version 2
// added FrameBlob; a version 1 peer would read a blob as a desync, so
// the version check turns it away first.
const WireVersion = 2

// MaxFrame bounds one frame's payload. The largest real payload is one
// shard's snapshot blob (about 155 MB for a single-worker tuning-storm
// cohort); anything past the cap is a corrupt or hostile header, not a
// real payload.
const MaxFrame = 1 << 28

var wireMagic = [4]byte{'A', 'D', 'B', 'W'}

// Frame types.
const (
	// FrameRequest carries an rpcRequest, coordinator → worker.
	FrameRequest byte = 1
	// FrameResponse carries an rpcResponse, worker → coordinator.
	FrameResponse byte = 2
	// FrameBlob carries a shard snapshot's raw bytes, right after the
	// frame of the call that moves it (see blobAfterRequest).
	FrameBlob byte = 3
)

// blobAfterRequest reports whether a method's request frame is followed
// by one FrameBlob (the snapshot to restore); blobAfterResponse, whether
// its response frame is (the snapshot taken).
func blobAfterRequest(method string) bool  { return method == "restore" }
func blobAfterResponse(method string) bool { return method == "checkpoint" }

// Wire protocol sentinel errors, mirroring the checkpoint container's.
var (
	// ErrWireMagic: the stream is not speaking the shard protocol.
	ErrWireMagic = errors.New("shard: bad wire magic")
	// ErrWireVersion: the peer speaks an incompatible protocol version.
	ErrWireVersion = errors.New("shard: unsupported wire version")
	// ErrWireTruncated: the stream ended inside a frame.
	ErrWireTruncated = errors.New("shard: truncated frame")
	// ErrWireChecksum: the payload does not match its CRC.
	ErrWireChecksum = errors.New("shard: frame checksum mismatch")
	// ErrWireOversized: the header claims a payload beyond MaxFrame.
	ErrWireOversized = errors.New("shard: oversized frame")
)

// frameHeaderLen is magic + version + type + payload length.
const frameHeaderLen = 4 + 1 + 1 + 4

// WriteFrame emits one frame.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w: %d bytes (cap %d)", ErrWireOversized, len(payload), MaxFrame)
	}
	var hdr [frameHeaderLen]byte
	copy(hdr[:4], wireMagic[:])
	hdr[4] = WireVersion
	hdr[5] = typ
	binary.LittleEndian.PutUint32(hdr[6:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	_, err := w.Write(crc[:])
	return err
}

// readChunk is the first read into a frame payload. Each later read
// asks for as many bytes as have arrived so far, so the buffer at most
// doubles per read and a header lying about its length costs at most
// twice the bytes that really arrived (or one chunk), never the claimed
// size.
const readChunk = 1 << 20

// ReadFrame reads and verifies one frame, returning its type and
// payload. io.EOF is returned bare when the stream ends cleanly on a
// frame boundary (the peer hung up between requests).
func ReadFrame(r io.Reader) (byte, []byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: stream ended inside a frame header", ErrWireTruncated)
	}
	if hdr[0] != wireMagic[0] || hdr[1] != wireMagic[1] || hdr[2] != wireMagic[2] || hdr[3] != wireMagic[3] {
		return 0, nil, ErrWireMagic
	}
	if hdr[4] != WireVersion {
		return 0, nil, fmt.Errorf("%w: peer speaks v%d, this build v%d", ErrWireVersion, hdr[4], WireVersion)
	}
	typ := hdr[5]
	length := int(binary.LittleEndian.Uint32(hdr[6:]))
	if length > MaxFrame {
		return typ, nil, fmt.Errorf("%w: header claims %d bytes (cap %d)", ErrWireOversized, length, MaxFrame)
	}
	var payload []byte
	for len(payload) < length {
		n := min(length-len(payload), max(len(payload), readChunk))
		grown := make([]byte, len(payload), len(payload)+n)
		copy(grown, payload)
		payload = grown
		if _, err := io.ReadFull(r, payload[len(payload):len(payload)+n]); err != nil {
			return typ, nil, fmt.Errorf("%w: stream ended %d bytes into a %d-byte payload", ErrWireTruncated, len(payload), length)
		}
		payload = payload[:len(payload)+n]
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return typ, nil, fmt.Errorf("%w: stream ended before the frame checksum", ErrWireTruncated)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(crcBuf[:]); got != want {
		return typ, nil, fmt.Errorf("%w: stored %08x, computed %08x", ErrWireChecksum, want, got)
	}
	return typ, payload, nil
}

// rpcRequest is one coordinator call. Params is method-specific JSON.
type rpcRequest struct {
	ID     uint64          `json:"id"`
	Method string          `json:"method"`
	Params json.RawMessage `json:"params,omitempty"`
}

// rpcResponse answers a request. Err is the flattened error message
// ("" means success); Result is method-specific JSON.
type rpcResponse struct {
	ID     uint64          `json:"id"`
	Err    string          `json:"err,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}
