//! The distributed fleet's wire protocol: versioned, length-prefixed,
//! checksummed frames over any byte stream.
//!
//! This module is a **public contract**: external workers can be
//! written against it without linking this crate, as long as they
//! speak the frame layout below (also documented in DESIGN.md).
//!
//! # Frame layout
//!
//! Every frame is one [`Payload`] wrapped in a fixed header and a
//! trailing checksum. All integers are little-endian:
//!
//! | offset | size | field                                             |
//! |--------|------|---------------------------------------------------|
//! | 0      | 4    | magic `b"HFLW"`                                   |
//! | 4      | 2    | protocol major version (`u16`)                    |
//! | 6      | 2    | protocol minor version (`u16`)                    |
//! | 8      | 4    | payload kind (`u32`, the [`Payload`] discriminant)|
//! | 12     | 4    | payload length `len` (`u32`, ≤ [`MAX_PAYLOAD`])   |
//! | 16     | len  | payload bytes (per-variant, persist-helper coded) |
//! | 16+len | 8    | FNV-1a of the payload bytes (`u64`)               |
//!
//! A reader rejects, with a typed [`WireError`] and never a panic:
//! wrong magic, a different **major** version (minor skew is
//! tolerated: minor bumps are additive), an unknown kind, an oversized
//! length, a checksum mismatch, and any payload that fails to decode
//! or leaves trailing bytes.
//!
//! # Versioning
//!
//! [`PROTOCOL_VERSION`] is semver-style `(major, minor)`. Bump the
//! minor for backwards-compatible additions (new payload kinds — old
//! peers reject unknown kinds cleanly); bump the major for any change
//! to existing frame or payload encodings. A sender uses a kind only
//! with a peer whose frames carry the minor that added it: version 1.1
//! added [`Payload::Continue`], which the coordinator sends only to a
//! worker whose `Hello` said minor ≥ 1, so 1.0 and 1.1 peers interoperate.
//!
//! Payload bodies reuse the PR 3 snapshot container's serialisation
//! helpers (`hfl_nn::persist`), so member checkpoints, coverage
//! bitmaps and corpus entries travel in exactly the on-disk encoding,
//! and every frame is integrity-checked with the same FNV-1a used for
//! snapshot sections.

use std::fmt;
use std::io::{self, Read, Write};

use hfl_dut::CoreKind;
use hfl_nn::persist::{
    fnv1a, read_u32, read_u64, read_usize, write_u32, write_u64, write_usize, PersistError,
};

use crate::campaign::HarvestedCase;
use crate::persist::{read_program, write_program};
use crate::spec::FuzzerKind;

/// The protocol spoken by this build, as `(major, minor)`. Minor 1 added
/// [`Payload::Continue`].
pub const PROTOCOL_VERSION: (u16, u16) = (1, 1);

/// The four bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"HFLW";

/// Upper bound on a frame's payload, in bytes. Large enough for any
/// realistic member checkpoint, small enough that a hostile length
/// prefix cannot drive an allocation bomb.
pub const MAX_PAYLOAD: u64 = 1 << 28;

/// Cap on harvested cases per epoch result (matches the corpus's own
/// bounded capacity; a hostile count is rejected before allocation).
const MAX_HARVEST: u64 = 1 << 20;

/// Cap on embedded state blobs (member checkpoints are far below this).
const MAX_BLOB: u64 = MAX_PAYLOAD;

/// Everything that can go wrong reading or writing a frame. Decoding
/// hostile input yields one of these — never a panic.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed.
    Io(io::Error),
    /// The stream ended inside a frame.
    Truncated,
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The peer speaks a different major version.
    VersionMismatch {
        /// Our [`PROTOCOL_VERSION`].
        ours: (u16, u16),
        /// The version in the offending frame.
        theirs: (u16, u16),
    },
    /// The kind field named no known [`Payload`] variant.
    UnknownKind(u32),
    /// The length prefix exceeded [`MAX_PAYLOAD`].
    FrameTooLarge(u64),
    /// The payload bytes did not hash to the trailing checksum.
    ChecksumMismatch {
        /// The checksum the frame carried.
        expected: u64,
        /// The checksum of the bytes actually received.
        found: u64,
    },
    /// The payload body failed to decode.
    Payload(PersistError),
    /// The peer violated the protocol state machine (e.g. a worker
    /// sent something other than `Hello` first).
    Protocol(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire I/O error: {e}"),
            WireError::Truncated => write!(f, "frame truncated mid-stream"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::VersionMismatch { ours, theirs } => write!(
                f,
                "protocol version mismatch: ours {}.{}, peer {}.{}",
                ours.0, ours.1, theirs.0, theirs.1
            ),
            WireError::UnknownKind(k) => write!(f, "unknown payload kind {k}"),
            WireError::FrameTooLarge(n) => {
                write!(f, "payload length {n} exceeds cap {MAX_PAYLOAD}")
            }
            WireError::ChecksumMismatch { expected, found } => write!(
                f,
                "payload checksum mismatch: frame says {expected:#018x}, bytes hash to {found:#018x}"
            ),
            WireError::Payload(e) => write!(f, "payload decode failed: {e}"),
            WireError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            WireError::Payload(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> WireError {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    }
}

impl From<PersistError> for WireError {
    fn from(e: PersistError) -> WireError {
        match e {
            // Persist helpers surface a short read as an io error;
            // on the wire that is a truncated frame.
            PersistError::Io(io) if io.kind() == io::ErrorKind::UnexpectedEof => {
                WireError::Truncated
            }
            other => WireError::Payload(other),
        }
    }
}

/// One protocol message. The coordinator sends `Assign`, `Grant`,
/// `Continue` and `Shutdown`; workers send `Hello`, `EpochResult`,
/// `Heartbeat`, `Bye` and `Error`.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// First frame on every connection: the worker introduces itself.
    /// Re-sent after a reconnect, which is how the coordinator detects
    /// a respawned worker.
    Hello {
        /// The worker's fleet-assigned index.
        worker: u32,
    },
    /// The coordinator binds a worker to a fleet member: everything
    /// needed to reconstruct the member's executor and fuzzer.
    Assign {
        /// Member index within the fleet line-up.
        member: u32,
        /// The member's display name (event streams key on it).
        name: String,
        /// The core to fuzz.
        core: CoreKind,
        /// The fuzzing strategy ([`FuzzerKind::build`] convention).
        fuzzer: FuzzerKind,
        /// The fuzzer's RNG seed.
        seed: u64,
        /// Per-case simulator step cap.
        max_steps: u64,
        /// Execution batch size.
        batch: u64,
        /// Worker-local pool threads.
        threads: u64,
        /// How often the worker should send [`Payload::Heartbeat`].
        heartbeat_millis: u64,
    },
    /// One epoch's work order: run `budget` cases starting from the
    /// carried member state. The state blobs are authoritative — a
    /// freshly respawned worker resumes mid-fleet from a `Grant`
    /// alone, which is what makes crash recovery bit-identical.
    Grant {
        /// The epoch this grant belongs to.
        epoch: u64,
        /// Cases to execute this epoch.
        budget: u64,
        /// Serialised `CampaignState` (the member's campaign so far).
        state: Vec<u8>,
        /// Serialised fuzzer state (`Fuzzer::save_state`).
        fuzzer_state: Vec<u8>,
    },
    /// A worker's completed epoch: the advanced member state plus the
    /// coverage-gaining cases harvested for the shared corpus.
    EpochResult {
        /// The epoch the work belongs to (echoes the grant).
        epoch: u64,
        /// Member index (echoes the assignment).
        member: u32,
        /// Serialised advanced `CampaignState`.
        state: Vec<u8>,
        /// Serialised advanced fuzzer state.
        fuzzer_state: Vec<u8>,
        /// Cases that grew the member's cumulative coverage.
        harvest: Vec<HarvestedCase>,
    },
    /// Liveness signal, sent on the assigned cadence even mid-epoch.
    Heartbeat {
        /// The worker's index.
        worker: u32,
    },
    /// The coordinator tells the worker the fleet is done.
    Shutdown,
    /// The worker acknowledges shutdown and will exit.
    Bye {
        /// The worker's index.
        worker: u32,
    },
    /// A fatal worker-side failure, reported before disconnecting.
    Error {
        /// Human-readable description.
        message: String,
    },
    /// One epoch's work order without the state (minor 1): run `budget`
    /// cases from the member state the worker holds live since it
    /// returned epoch `after`'s result. A worker whose last result is
    /// another epoch, or that holds no state, answers [`Payload::Error`].
    /// Only a peer whose `Hello` said minor ≥ 1 is sent one.
    Continue {
        /// The epoch this work order belongs to.
        epoch: u64,
        /// Cases to execute this epoch.
        budget: u64,
        /// The epoch of the result the worker continues from.
        after: u64,
    },
}

impl Payload {
    /// The on-wire kind discriminant (stable across builds; part of
    /// the protocol contract).
    #[must_use]
    pub fn kind(&self) -> u32 {
        match self {
            Payload::Hello { .. } => 1,
            Payload::Assign { .. } => 2,
            Payload::Grant { .. } => 3,
            Payload::EpochResult { .. } => 4,
            Payload::Heartbeat { .. } => 5,
            Payload::Shutdown => 6,
            Payload::Bye { .. } => 7,
            Payload::Error { .. } => 8,
            Payload::Continue { .. } => 9,
        }
    }

    /// A short name for logs.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Payload::Hello { .. } => "hello",
            Payload::Assign { .. } => "assign",
            Payload::Grant { .. } => "grant",
            Payload::EpochResult { .. } => "epoch_result",
            Payload::Heartbeat { .. } => "heartbeat",
            Payload::Shutdown => "shutdown",
            Payload::Bye { .. } => "bye",
            Payload::Error { .. } => "error",
            Payload::Continue { .. } => "continue",
        }
    }

    fn encode_body(&self, w: &mut Vec<u8>) -> Result<(), WireError> {
        match self {
            Payload::Hello { worker } | Payload::Heartbeat { worker } | Payload::Bye { worker } => {
                write_u32(w, *worker)?;
            }
            Payload::Assign {
                member,
                name,
                core,
                fuzzer,
                seed,
                max_steps,
                batch,
                threads,
                heartbeat_millis,
            } => {
                write_u32(w, *member)?;
                write_wire_string(w, name)?;
                write_u32(w, crate::campaign::core_index(*core))?;
                write_wire_string(w, fuzzer.as_str())?;
                write_u64(w, *seed)?;
                write_u64(w, *max_steps)?;
                write_u64(w, *batch)?;
                write_u64(w, *threads)?;
                write_u64(w, *heartbeat_millis)?;
            }
            Payload::Grant {
                epoch,
                budget,
                state,
                fuzzer_state,
            } => {
                write_u64(w, *epoch)?;
                write_u64(w, *budget)?;
                write_blob(w, state)?;
                write_blob(w, fuzzer_state)?;
            }
            Payload::EpochResult {
                epoch,
                member,
                state,
                fuzzer_state,
                harvest,
            } => {
                write_u64(w, *epoch)?;
                write_u32(w, *member)?;
                write_blob(w, state)?;
                write_blob(w, fuzzer_state)?;
                write_usize(w, harvest.len())?;
                for case in harvest {
                    write_harvested(w, case)?;
                }
            }
            Payload::Shutdown => {}
            Payload::Error { message } => {
                write_wire_string(w, message)?;
            }
            Payload::Continue {
                epoch,
                budget,
                after,
            } => {
                write_u64(w, *epoch)?;
                write_u64(w, *budget)?;
                write_u64(w, *after)?;
            }
        }
        Ok(())
    }

    fn decode_body(kind: u32, r: &mut &[u8]) -> Result<Payload, WireError> {
        let payload = match kind {
            1 => Payload::Hello {
                worker: read_u32(r)?,
            },
            2 => Payload::Assign {
                member: read_u32(r)?,
                name: read_wire_string(r)?,
                core: read_core(r)?,
                fuzzer: read_fuzzer_kind(r)?,
                seed: read_u64(r)?,
                max_steps: read_u64(r)?,
                batch: read_u64(r)?,
                threads: read_u64(r)?,
                heartbeat_millis: read_u64(r)?,
            },
            3 => Payload::Grant {
                epoch: read_u64(r)?,
                budget: read_u64(r)?,
                state: read_blob(r)?,
                fuzzer_state: read_blob(r)?,
            },
            4 => {
                let epoch = read_u64(r)?;
                let member = read_u32(r)?;
                let state = read_blob(r)?;
                let fuzzer_state = read_blob(r)?;
                let n = read_usize(r, MAX_HARVEST, "harvest count")?;
                let mut harvest = Vec::new();
                for _ in 0..n {
                    harvest.push(read_harvested(r)?);
                }
                Payload::EpochResult {
                    epoch,
                    member,
                    state,
                    fuzzer_state,
                    harvest,
                }
            }
            5 => Payload::Heartbeat {
                worker: read_u32(r)?,
            },
            6 => Payload::Shutdown,
            7 => Payload::Bye {
                worker: read_u32(r)?,
            },
            8 => Payload::Error {
                message: read_wire_string(r)?,
            },
            9 => Payload::Continue {
                epoch: read_u64(r)?,
                budget: read_u64(r)?,
                after: read_u64(r)?,
            },
            other => return Err(WireError::UnknownKind(other)),
        };
        Ok(payload)
    }
}

/// A versioned protocol frame: a [`Payload`] stamped with the sender's
/// protocol version.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// The sender's protocol version.
    pub version: (u16, u16),
    /// The message.
    pub payload: Payload,
}

impl Frame {
    /// Wraps a payload at this build's [`PROTOCOL_VERSION`].
    #[must_use]
    pub fn new(payload: Payload) -> Frame {
        Frame {
            version: PROTOCOL_VERSION,
            payload,
        }
    }

    /// Encodes the frame per the module-level layout.
    ///
    /// # Errors
    /// Only if a payload field exceeds its encoding cap (e.g. an
    /// over-long string).
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut body = Vec::new();
        self.payload.encode_body(&mut body)?;
        if body.len() as u64 > MAX_PAYLOAD {
            return Err(WireError::FrameTooLarge(body.len() as u64));
        }
        let mut out = Vec::with_capacity(24 + body.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&self.version.0.to_le_bytes());
        out.extend_from_slice(&self.version.1.to_le_bytes());
        out.extend_from_slice(&self.payload.kind().to_le_bytes());
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        let checksum = fnv1a(&body);
        out.extend_from_slice(&body);
        out.extend_from_slice(&checksum.to_le_bytes());
        Ok(out)
    }

    /// Encodes and writes the frame to a stream in one write-visible
    /// unit (callers serialise concurrent writers externally).
    ///
    /// # Errors
    /// Encoding caps or stream I/O.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), WireError> {
        let bytes = self.encode()?;
        w.write_all(&bytes)?;
        w.flush()?;
        Ok(())
    }

    /// Reads and decodes one frame from a stream.
    ///
    /// # Errors
    /// Every hostile-input case maps to a typed [`WireError`]; this
    /// never panics. A clean EOF before the first magic byte also
    /// surfaces as [`WireError::Truncated`].
    pub fn read_from<R: Read>(r: &mut R) -> Result<Frame, WireError> {
        let mut header = [0u8; 16];
        read_exact_wire(r, &mut header)?;
        if header[0..4] != MAGIC {
            return Err(WireError::BadMagic([
                header[0], header[1], header[2], header[3],
            ]));
        }
        let major = u16::from_le_bytes([header[4], header[5]]);
        let minor = u16::from_le_bytes([header[6], header[7]]);
        if major != PROTOCOL_VERSION.0 {
            return Err(WireError::VersionMismatch {
                ours: PROTOCOL_VERSION,
                theirs: (major, minor),
            });
        }
        let kind = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
        let len = u32::from_le_bytes([header[12], header[13], header[14], header[15]]);
        if u64::from(len) > MAX_PAYLOAD {
            return Err(WireError::FrameTooLarge(u64::from(len)));
        }
        let mut body = vec![0u8; len as usize];
        read_exact_wire(r, &mut body)?;
        let mut trailer = [0u8; 8];
        read_exact_wire(r, &mut trailer)?;
        let expected = u64::from_le_bytes(trailer);
        let found = fnv1a(&body);
        if expected != found {
            return Err(WireError::ChecksumMismatch { expected, found });
        }
        let mut cursor: &[u8] = &body;
        let payload = Payload::decode_body(kind, &mut cursor)?;
        if !cursor.is_empty() {
            return Err(WireError::Payload(hfl_nn::persist::corrupt(format!(
                "{} bytes trailing after {} payload",
                cursor.len(),
                payload.name()
            ))));
        }
        Ok(Frame {
            version: (major, minor),
            payload,
        })
    }

    /// Decodes one frame from a byte slice (must contain exactly one
    /// frame).
    ///
    /// # Errors
    /// As [`Frame::read_from`], plus trailing bytes after the frame.
    pub fn decode(bytes: &[u8]) -> Result<Frame, WireError> {
        let mut cursor = bytes;
        let frame = Frame::read_from(&mut cursor)?;
        if !cursor.is_empty() {
            return Err(WireError::Protocol(format!(
                "{} bytes trailing after frame",
                cursor.len()
            )));
        }
        Ok(frame)
    }
}

fn read_exact_wire<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), WireError> {
    r.read_exact(buf).map_err(WireError::from)
}

fn write_wire_string(w: &mut Vec<u8>, value: &str) -> Result<(), WireError> {
    hfl_nn::persist::write_string(w, value)?;
    Ok(())
}

fn read_wire_string(r: &mut &[u8]) -> Result<String, WireError> {
    Ok(hfl_nn::persist::read_string(r)?)
}

fn write_blob(w: &mut Vec<u8>, blob: &[u8]) -> Result<(), WireError> {
    if blob.len() as u64 > MAX_BLOB {
        return Err(WireError::FrameTooLarge(blob.len() as u64));
    }
    write_usize(w, blob.len())?;
    w.extend_from_slice(blob);
    Ok(())
}

fn read_blob(r: &mut &[u8]) -> Result<Vec<u8>, WireError> {
    let len = read_usize(r, MAX_BLOB, "blob length")?;
    if r.len() < len {
        return Err(WireError::Truncated);
    }
    let (blob, rest) = r.split_at(len);
    *r = rest;
    Ok(blob.to_vec())
}

fn read_core(r: &mut &[u8]) -> Result<CoreKind, WireError> {
    let index = read_u32(r)?;
    CoreKind::ALL.get(index as usize).copied().ok_or_else(|| {
        WireError::Payload(hfl_nn::persist::corrupt(format!(
            "core index {index} out of range"
        )))
    })
}

fn read_fuzzer_kind(r: &mut &[u8]) -> Result<FuzzerKind, WireError> {
    let name = read_wire_string(r)?;
    FuzzerKind::parse(&name).map_err(|e| WireError::Payload(hfl_nn::persist::corrupt(e)))
}

fn write_harvested(w: &mut Vec<u8>, case: &HarvestedCase) -> Result<(), WireError> {
    write_u64(w, case.case)?;
    write_program(w, &case.body)?;
    write_usize(w, case.coverage.len())?;
    hfl_nn::persist::write_u64_vec(w, case.coverage.words())?;
    Ok(())
}

fn read_harvested(r: &mut &[u8]) -> Result<HarvestedCase, WireError> {
    let case = read_u64(r)?;
    let body = read_program(r)?;
    let len = read_usize(r, u64::from(u32::MAX), "coverage length")?;
    let words = hfl_nn::persist::read_u64_vec(r)?;
    let coverage = hfl_dut::CoverageSnapshot::from_words(len, words).ok_or_else(|| {
        WireError::Payload(hfl_nn::persist::corrupt(
            "coverage word count does not match its length",
        ))
    })?;
    Ok(HarvestedCase {
        case,
        body,
        coverage,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfl_riscv::Instruction;

    fn sample_payloads() -> Vec<Payload> {
        let snap = hfl_dut::CoverageSnapshot::from_words(130, vec![1 << 3, 0, 1 << 1])
            .expect("3 words cover 130 points");
        vec![
            Payload::Hello { worker: 2 },
            Payload::Assign {
                member: 1,
                name: String::from("hfl-5"),
                core: CoreKind::Boom,
                fuzzer: FuzzerKind::Hfl,
                seed: 5,
                max_steps: 300,
                batch: 4,
                threads: 2,
                heartbeat_millis: 500,
            },
            Payload::Grant {
                epoch: 3,
                budget: 12,
                state: vec![1, 2, 3],
                fuzzer_state: vec![],
            },
            Payload::EpochResult {
                epoch: 3,
                member: 1,
                state: vec![9; 40],
                fuzzer_state: vec![7; 8],
                harvest: vec![HarvestedCase {
                    case: 11,
                    body: vec![Instruction::NOP, Instruction::NOP],
                    coverage: snap,
                }],
            },
            Payload::Heartbeat { worker: 0 },
            Payload::Shutdown,
            Payload::Bye { worker: 3 },
            Payload::Error {
                message: String::from("executor poisoned"),
            },
            Payload::Continue {
                epoch: 4,
                budget: 12,
                after: 3,
            },
        ]
    }

    #[test]
    fn every_payload_round_trips() {
        for payload in sample_payloads() {
            let frame = Frame::new(payload.clone());
            let bytes = frame.encode().expect("encodes");
            let back = Frame::decode(&bytes).expect("decodes");
            assert_eq!(back.version, PROTOCOL_VERSION);
            assert_eq!(back.payload, payload);
        }
    }

    #[test]
    fn stream_reads_consume_exactly_one_frame() {
        let mut stream = Vec::new();
        for payload in sample_payloads() {
            stream.extend(Frame::new(payload).encode().expect("encodes"));
        }
        let mut cursor: &[u8] = &stream;
        for payload in sample_payloads() {
            let frame = Frame::read_from(&mut cursor).expect("frame");
            assert_eq!(frame.payload, payload);
        }
        assert!(cursor.is_empty());
        assert!(matches!(
            Frame::read_from(&mut cursor),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn major_version_mismatch_is_rejected() {
        let mut bytes = Frame::new(Payload::Shutdown).encode().expect("encodes");
        bytes[4] = PROTOCOL_VERSION.0 as u8 + 1;
        match Frame::decode(&bytes) {
            Err(WireError::VersionMismatch { ours, theirs }) => {
                assert_eq!(ours, PROTOCOL_VERSION);
                assert_eq!(theirs.0, PROTOCOL_VERSION.0 + 1);
            }
            other => panic!("expected version mismatch, got {other:?}"),
        }
    }

    #[test]
    fn minor_version_skew_is_tolerated() {
        let mut bytes = Frame::new(Payload::Shutdown).encode().expect("encodes");
        bytes[6] = 0xff;
        let frame = Frame::decode(&bytes).expect("minor skew decodes");
        assert_eq!(frame.version, (PROTOCOL_VERSION.0, 0xff));
    }

    #[test]
    fn corruption_is_detected() {
        let bytes = Frame::new(Payload::Error {
            message: String::from("x"),
        })
        .encode()
        .expect("encodes");
        // Flip a payload byte: checksum catches it.
        let mut corrupt = bytes.clone();
        corrupt[16] ^= 0x40;
        assert!(matches!(
            Frame::decode(&corrupt),
            Err(WireError::ChecksumMismatch { .. })
        ));
        // Break the magic.
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            Frame::decode(&bad_magic),
            Err(WireError::BadMagic(_))
        ));
        // Unknown kind.
        let mut bad_kind = bytes;
        bad_kind[8] = 0xee;
        assert!(matches!(
            Frame::decode(&bad_kind),
            Err(WireError::UnknownKind(_))
        ));
    }
}
