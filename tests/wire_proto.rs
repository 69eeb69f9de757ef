//! Property tests for the `hfl::wire` frame protocol: every payload
//! round-trips bit-exactly, and hostile inputs — truncations at every
//! byte boundary, single-byte corruption at every offset, random
//! garbage, version skew — are rejected with a typed [`WireError`] and
//! never a panic.
//!
//! The vendored proptest stub only provides integer strategies, so
//! structured payloads are derived from integer seeds through a
//! splitmix generator (the same pattern as `tests/serve_proto.rs`).

use hfl::spec::FuzzerKind;
use hfl::wire::{Frame, Payload, WireError, PROTOCOL_VERSION};
use hfl::HarvestedCase;
use hfl_dut::{CoreKind, CoverageSnapshot};
use hfl_riscv::Instruction;
use proptest::prelude::*;

/// Deterministic splitmix64 — the seed-to-structure expander.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    fn blob(&mut self, max_len: u64) -> Vec<u8> {
        (0..self.below(max_len))
            .map(|_| self.next() as u8)
            .collect()
    }

    fn word(&mut self) -> String {
        let len = 1 + self.below(12);
        (0..len)
            .map(|_| char::from(b'a' + (self.below(26) as u8)))
            .collect()
    }

    fn snapshot(&mut self) -> CoverageSnapshot {
        let len = 1 + self.below(120) as usize;
        let words = len.div_ceil(64);
        let mut bits: Vec<u64> = (0..words).map(|_| self.next()).collect();
        // Mask the tail so no bit lies beyond `len`.
        let tail = len % 64;
        if tail != 0 {
            if let Some(last) = bits.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
        CoverageSnapshot::from_words(len, bits).expect("word count matches length")
    }

    fn harvest(&mut self) -> Vec<HarvestedCase> {
        (0..self.below(3))
            .map(|i| HarvestedCase {
                case: i * 7 + self.below(100),
                body: vec![Instruction::NOP; 1 + self.below(6) as usize],
                coverage: self.snapshot(),
            })
            .collect()
    }

    /// One structurally valid payload of a pseudo-random variant.
    fn payload(&mut self) -> Payload {
        match self.below(9) {
            0 => Payload::Hello {
                worker: self.next() as u32,
            },
            1 => Payload::Assign {
                member: self.below(64) as u32,
                name: self.word(),
                core: CoreKind::ALL[self.below(CoreKind::ALL.len() as u64) as usize],
                fuzzer: FuzzerKind::ALL[self.below(FuzzerKind::ALL.len() as u64) as usize],
                seed: self.next(),
                max_steps: 1 + self.below(10_000),
                batch: 1 + self.below(8),
                threads: 1 + self.below(8),
                heartbeat_millis: 1 + self.below(10_000),
            },
            2 => Payload::Grant {
                epoch: self.below(1000),
                budget: self.below(1000),
                state: self.blob(64),
                fuzzer_state: self.blob(64),
            },
            3 => Payload::EpochResult {
                epoch: self.below(1000),
                member: self.below(64) as u32,
                state: self.blob(64),
                fuzzer_state: self.blob(64),
                harvest: self.harvest(),
            },
            4 => Payload::Heartbeat {
                worker: self.next() as u32,
            },
            5 => Payload::Shutdown,
            6 => Payload::Bye {
                worker: self.next() as u32,
            },
            7 => Payload::Error {
                message: self.word(),
            },
            _ => Payload::Continue {
                epoch: self.below(1000),
                budget: self.below(1000),
                after: self.below(1000),
            },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any payload the protocol can express round-trips bit-exactly
    /// through encode/decode, and back-to-back frames on one stream
    /// each consume exactly their own bytes.
    #[test]
    fn payloads_round_trip(seed in any::<u64>(), frames in 1usize..5) {
        let mut rng = Mix(seed);
        let payloads: Vec<Payload> = (0..frames).map(|_| rng.payload()).collect();
        let mut stream = Vec::new();
        for payload in &payloads {
            let bytes = Frame::new(payload.clone()).encode().expect("encodes");
            prop_assert_eq!(
                Frame::decode(&bytes).expect("decodes").payload.clone(),
                payload.clone()
            );
            stream.extend(bytes);
        }
        let mut cursor: &[u8] = &stream;
        for payload in &payloads {
            let frame = Frame::read_from(&mut cursor).expect("stream frame");
            prop_assert_eq!(&frame.payload, payload);
            prop_assert_eq!(frame.version, PROTOCOL_VERSION);
        }
        prop_assert!(cursor.is_empty());
    }

    /// Truncating a valid frame at *every* byte boundary yields a typed
    /// error — never a panic, never a bogus success.
    #[test]
    fn every_truncation_point_is_rejected(seed in any::<u64>()) {
        let mut rng = Mix(seed);
        let bytes = Frame::new(rng.payload()).encode().expect("encodes");
        for cut in 0..bytes.len() {
            match Frame::decode(&bytes[..cut]) {
                Ok(frame) => prop_assert!(
                    false,
                    "truncation at {cut}/{} decoded as {}",
                    bytes.len(),
                    frame.payload.name()
                ),
                Err(e) => {
                    // Must be a typed rejection; most cuts are plain
                    // truncation, cuts inside the trailer corrupt the
                    // checksum first.
                    let _ = e.to_string();
                }
            }
        }
    }

    /// Flipping any single byte of a valid frame never panics. If the
    /// mutant still decodes (e.g. a flipped *minor* version byte, which
    /// the contract tolerates), the payload must be untouched.
    #[test]
    fn single_byte_corruption_never_panics(seed in any::<u64>()) {
        let mut rng = Mix(seed);
        let payload = rng.payload();
        let bytes = Frame::new(payload.clone()).encode().expect("encodes");
        for at in 0..bytes.len() {
            let mut mutant = bytes.clone();
            mutant[at] ^= 1 << rng.below(8);
            match Frame::decode(&mutant) {
                Ok(frame) => {
                    if (4..8).contains(&at) {
                        // Version bytes are outside the checksum; a
                        // tolerated minor skew must not touch the payload.
                        prop_assert_eq!(&frame.payload, &payload, "byte {at} changed the payload");
                    } else if (8..12).contains(&at) {
                        // A flipped kind byte may legally re-interpret the
                        // body as a sibling variant with the same encoding
                        // (Hello / Heartbeat / Bye all carry one worker id).
                        prop_assert!(frame.payload.kind() != payload.kind());
                    } else {
                        // Everything else is covered by magic, length
                        // bounds or the FNV-1a trailer.
                        prop_assert!(false, "flip at byte {at} decoded undetected");
                    }
                }
                Err(e) => {
                    let _ = e.to_string();
                }
            }
        }
    }

    /// Random garbage never panics the decoder, whether presented as a
    /// slice or as a stream.
    #[test]
    fn garbage_is_survivable(seed in any::<u64>(), len in 0usize..256) {
        let mut rng = Mix(seed);
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        if rng.below(3) == 0 && bytes.len() >= 4 {
            // Sometimes lead with valid magic so the parser gets past
            // the first gate and exercises the deeper rejections.
            bytes[0..4].copy_from_slice(b"HFLW");
        }
        let _ = Frame::decode(&bytes);
        let mut cursor: &[u8] = &bytes;
        let _ = Frame::read_from(&mut cursor);
    }

    /// Every major version other than ours is refused with the typed
    /// mismatch error naming both sides.
    #[test]
    fn foreign_major_versions_are_refused(seed in any::<u64>(), major in any::<u16>()) {
        prop_assume!(major != PROTOCOL_VERSION.0);
        let mut rng = Mix(seed);
        let mut bytes = Frame::new(rng.payload()).encode().expect("encodes");
        bytes[4..6].copy_from_slice(&major.to_le_bytes());
        match Frame::decode(&bytes) {
            Err(WireError::VersionMismatch { ours, theirs }) => {
                prop_assert_eq!(ours, PROTOCOL_VERSION);
                prop_assert_eq!(theirs.0, major);
            }
            other => prop_assert!(false, "expected version mismatch, got {other:?}"),
        }
    }
}
