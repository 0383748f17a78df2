// Package repl implements fault-tolerant follower replication by WAL
// shipping: a primary serverd streams each relation's on-disk WAL
// frames verbatim over long-lived HTTP responses, and followers apply
// them through the relation's ordinary mutation path, refresh their
// samplers, and serve read-only draws.
//
// The wire format IS the WAL frame format, specified in package wal's
// comment and decoded here by wal.FrameReader, so the checksum computed
// when the primary appended the record protects it end to end; nothing
// re-encodes in between. This package adds one convention on top: a
// heartbeat is a frame whose payload is the single byte 0xFF (a byte no
// WAL record kind uses) and whose seq is the primary's head version.
// Frame seqs are relation versions, so a follower detects gaps by
// comparing against its own Version() and falls back to a full snapshot
// resync.
package repl

import "sampleunion/internal/wal"

// heartbeatByte is the payload of a heartbeat frame. WAL record kinds
// occupy small values (0..3); 0xFF can never open a real record.
const heartbeatByte = 0xFF

// AppendHeartbeat appends a heartbeat frame advertising the primary's
// head version.
func AppendHeartbeat(dst []byte, head uint64) []byte {
	return wal.AppendFrame(dst, head, []byte{heartbeatByte})
}

// IsHeartbeat reports whether a frame payload is a heartbeat.
func IsHeartbeat(payload []byte) bool {
	return len(payload) == 1 && payload[0] == heartbeatByte
}
