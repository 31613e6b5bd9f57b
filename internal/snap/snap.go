// Package snap is the durability layer: a versioned, checksummed binary
// container for compiled dataset artifacts, plus a write-ahead log of delta
// batches.
//
// # Container format
//
// A snapshot is a fixed header followed by a sequence of length-prefixed
// sections and a terminating end section:
//
//	header:  "QJSN" | version u32 | kind u32
//	section: id u32 | length u64 | payload | crc u32 (Castagnoli, payload)
//	...
//	end:     SecEnd section with empty payload
//
// All integers are little-endian. The length prefix lets a reader skip a
// section it does not need without decoding it (the CRC still guards the
// bytes it skips over); the end section distinguishes a complete stream from
// a truncated one. Section payloads are encoded with the Enc/Dec primitives
// in this package: fixed-width integers, uvarint-length-prefixed strings,
// and raw little-endian value/gid arrays — deliberately close to the in-
// memory columnar layout so encode and decode are single passes.
//
// # Versioning policy
//
// Version is bumped on ANY change to the header, the section framing, or the
// payload encoding of an existing section id. Readers accept exactly their
// own version (ErrVersion otherwise) — snapshots are rebuildable caches of
// the source data, so cross-version migration is "re-Prepare and re-save",
// never a decoder that guesses. Adding a new section id is also a version
// bump: old readers would skip it silently and load a semantically partial
// artifact.
//
// # Failure discipline
//
// Decoding never returns a partial result: any structural problem maps to
// one of the sentinel errors below and the caller gets (nil, err). The
// sentinels are re-exported by the public qjoin package so callers can
// distinguish "not a snapshot at all" (ErrBadMagic) from "snapshot from a
// different format revision" (ErrVersion) from "damaged artifact"
// (ErrChecksum, ErrTruncated, ErrCorrupt).
package snap

import "errors"

// Version is the container format revision. See the package comment for the
// bump policy.
const Version = 2

var magic = [4]byte{'Q', 'J', 'S', 'N'}

// Kind identifies what a snapshot stream encodes.
type Kind uint32

const (
	// KindPrepared is an unsharded compiled plan: dict, raw database,
	// one engine section, sketch sections.
	KindPrepared Kind = 1
	// KindSharded is a sharded compiled plan: dict, raw database, one
	// engine section per shard, sketch sections.
	KindSharded Kind = 2
	// KindDataset is a server-side dataset: dict and raw relations plus the
	// registry metadata (generation, shard config) — no compiled plan;
	// plans are recompiled on demand through the plan cache.
	KindDataset Kind = 3
)

// Section ids. New ids require a Version bump (see package comment).
const (
	SecEnd    uint32 = 0 // terminator, empty payload
	SecMeta   uint32 = 1 // kind-specific metadata (shard count, generation, ...)
	SecDict   uint32 = 2 // the value dictionary
	SecRawDB  uint32 = 3 // raw input database (column vectors per relation)
	SecEngine uint32 = 4 // one compiled engine (dedup db, exec tree, counts)
	SecSketch uint32 = 5 // one warm sketch summary (per ranking spec)
)

// Sentinel errors. Wrapped with context by the decoders; test with
// errors.Is.
var (
	// ErrBadMagic means the stream is not a qjoin snapshot at all.
	ErrBadMagic = errors.New("snap: not a qjoin snapshot")
	// ErrVersion means the snapshot was written by a different format
	// revision; re-Prepare from source data and re-save.
	ErrVersion = errors.New("snap: unsupported snapshot version")
	// ErrChecksum means a section's payload does not match its CRC.
	ErrChecksum = errors.New("snap: section checksum mismatch")
	// ErrTruncated means the stream ended before its end section.
	ErrTruncated = errors.New("snap: truncated snapshot")
	// ErrCorrupt means a section decoded to structurally invalid data.
	ErrCorrupt = errors.New("snap: corrupt snapshot")
)
