package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"os"
)

// RecordType discriminates WAL records.
type RecordType uint8

// WAL record types.
const (
	// RecEpoch is appended after every completed training epoch; it is how
	// recovery knows which epochs had been reached (and must be replayed)
	// even when no checkpoint survived them.
	RecEpoch RecordType = iota + 1
	// RecIntent is appended after the checkpoint temp file is durable but
	// before the rename: it names the file about to be committed.
	RecIntent
	// RecCommit is appended after the rename is durable: the named file is
	// now the latest checkpoint.
	RecCommit
)

// String implements fmt.Stringer.
func (t RecordType) String() string {
	switch t {
	case RecEpoch:
		return "epoch"
	case RecIntent:
		return "intent"
	case RecCommit:
		return "commit"
	}
	return fmt.Sprintf("RecordType(%d)", uint8(t))
}

// WalRecord is one step record of the write-ahead log.
type WalRecord struct {
	Type   RecordType
	Epoch  int
	Loss   float64 // RecEpoch: mean training loss of the epoch
	Pulses int64   // RecEpoch: cumulative device pulses at epoch end
	File   string  // RecIntent/RecCommit: checkpoint file name
}

// walName is the log's file name inside a Store directory.
const walName = "wal.log"

// appendWAL appends one CRC-framed record to the log and fsyncs it. A
// crash mid-append leaves a truncated tail that readWAL detects and
// discards — exactly the torn-tail semantics of a real database log.
func appendWAL(path string, rec WalRecord) error {
	frame, err := walFrame(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(frame); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// walFrame encodes one log record as a frame: uint32 body length, uint32
// body CRC32C, gob body.
func walFrame(rec WalRecord) ([]byte, error) {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(rec); err != nil {
		return nil, fmt.Errorf("ckpt: wal encode: %w", err)
	}
	frame := make([]byte, 0, 8+body.Len())
	frame = binary.LittleEndian.AppendUint32(frame, uint32(body.Len()))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(body.Bytes(), crcTable))
	return append(frame, body.Bytes()...), nil
}

// readWAL parses the log, returning every intact record in order plus
// whether a truncated or corrupted tail was discarded. A missing log is an
// empty history, not an error (fresh directory).
func readWAL(path string) (recs []WalRecord, torn bool, err error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	recs, torn = parseWAL(raw)
	return recs, torn, nil
}

// parseWAL splits raw log bytes into their intact records, stopping at the
// first frame that is truncated, fails its CRC or does not decode.
func parseWAL(raw []byte) (recs []WalRecord, torn bool) {
	off := 0
	for off < len(raw) {
		if off+8 > len(raw) {
			return recs, true
		}
		blen := int(binary.LittleEndian.Uint32(raw[off:]))
		sum := binary.LittleEndian.Uint32(raw[off+4:])
		body := raw[off+8:]
		if blen > len(body) {
			return recs, true
		}
		body = body[:blen]
		if crc32.Checksum(body, crcTable) != sum {
			return recs, true
		}
		var rec WalRecord
		if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&rec); err != nil {
			return recs, true
		}
		recs = append(recs, rec)
		off += 8 + blen
	}
	return recs, false
}
