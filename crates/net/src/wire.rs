//! Binary wire format for master↔worker messages.
//!
//! Layout: a one-byte tag, little-endian integer headers, then raw
//! little-endian `f64` coefficients for block payloads. The encoding is
//! self-describing enough for a socket transport; the in-process runtime
//! round-trips every data message through it so the bytes that "travel"
//! are exactly what a networked deployment would send.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use stargemm_linalg::Block;
use stargemm_sim::{ChunkDescr, ChunkId, StepCosts, StepId};

/// Messages master → worker.
#[derive(Clone, Debug, PartialEq)]
pub enum ToWorker {
    /// Open a chunk: engine descriptor, local geometry `(h, w)`, and the
    /// chunk's current C blocks (row-major `h × w`).
    LoadC {
        descr: ChunkDescr,
        h: u32,
        w: u32,
        blocks: Vec<Block>,
    },
    /// A blocks of one step, ordered `(i-local major, k minor)`.
    FragA {
        chunk: ChunkId,
        step: StepId,
        blocks: Vec<Block>,
    },
    /// B blocks of one step, ordered `(k major, j-local minor)`.
    FragB {
        chunk: ChunkId,
        step: StepId,
        blocks: Vec<Block>,
    },
    /// Request the computed chunk back.
    Retrieve { chunk: ChunkId },
    /// Simulated crash (dynamic platforms): drop every resident chunk
    /// and ignore data until [`ToWorker::Recover`].
    Fail,
    /// Rejoin after a simulated crash, with empty memory.
    Recover,
}

/// Messages worker → master.
#[derive(Clone, Debug, PartialEq)]
pub enum ToMaster {
    /// A compute step finished (control message, un-throttled).
    StepDone { chunk: ChunkId, step: StepId },
    /// All steps of a chunk finished (control message).
    ChunkComputed { chunk: ChunkId },
    /// The chunk's C blocks, row-major (data message, throttled).
    Result { chunk: ChunkId, blocks: Vec<Block> },
}

const TAG_LOAD_C: u8 = 1;
const TAG_FRAG_A: u8 = 2;
const TAG_FRAG_B: u8 = 3;
const TAG_RETRIEVE: u8 = 4;
const TAG_FAIL: u8 = 9;
const TAG_RECOVER: u8 = 10;
const TAG_STEP_DONE: u8 = 6;
const TAG_CHUNK_COMPUTED: u8 = 7;
const TAG_RESULT: u8 = 8;

fn put_blocks(buf: &mut BytesMut, blocks: &[Block]) {
    let q = blocks.first().map_or(0, |b| b.q());
    buf.put_u32_le(blocks.len() as u32);
    buf.put_u32_le(q as u32);
    for b in blocks {
        debug_assert_eq!(b.q(), q, "mixed block sides in one message");
        for &x in b.as_slice() {
            buf.put_f64_le(x);
        }
    }
}

fn get_blocks(buf: &mut Bytes) -> Vec<Block> {
    let n = buf.get_u32_le() as usize;
    let q = buf.get_u32_le() as usize;
    (0..n)
        .map(|_| {
            let data: Vec<f64> = (0..q * q).map(|_| buf.get_f64_le()).collect();
            Block::from_vec(q, data)
        })
        .collect()
}

fn put_descr(buf: &mut BytesMut, d: &ChunkDescr) {
    buf.put_u32_le(d.id);
    buf.put_u64_le(d.c_blocks);
    buf.put_u32_le(d.steps);
    buf.put_u64_le(d.a_blocks_per_step);
    buf.put_u64_le(d.b_blocks_per_step);
    buf.put_u64_le(d.updates_per_step);
    match d.tail {
        None => buf.put_u8(0),
        Some(t) => {
            buf.put_u8(1);
            buf.put_u64_le(t.a_blocks);
            buf.put_u64_le(t.b_blocks);
            buf.put_u64_le(t.updates);
        }
    }
}

fn get_descr(buf: &mut Bytes) -> ChunkDescr {
    let id = buf.get_u32_le();
    let c_blocks = buf.get_u64_le();
    let steps = buf.get_u32_le();
    let a = buf.get_u64_le();
    let b = buf.get_u64_le();
    let u = buf.get_u64_le();
    let tail = if buf.get_u8() == 1 {
        Some(StepCosts {
            a_blocks: buf.get_u64_le(),
            b_blocks: buf.get_u64_le(),
            updates: buf.get_u64_le(),
        })
    } else {
        None
    };
    ChunkDescr {
        id,
        c_blocks,
        steps,
        a_blocks_per_step: a,
        b_blocks_per_step: b,
        updates_per_step: u,
        tail,
    }
}

impl ToWorker {
    /// Serializes the message.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        match self {
            ToWorker::LoadC {
                descr,
                h,
                w,
                blocks,
            } => {
                buf.put_u8(TAG_LOAD_C);
                put_descr(&mut buf, descr);
                buf.put_u32_le(*h);
                buf.put_u32_le(*w);
                put_blocks(&mut buf, blocks);
            }
            ToWorker::FragA {
                chunk,
                step,
                blocks,
            } => {
                buf.put_u8(TAG_FRAG_A);
                buf.put_u32_le(*chunk);
                buf.put_u32_le(*step);
                put_blocks(&mut buf, blocks);
            }
            ToWorker::FragB {
                chunk,
                step,
                blocks,
            } => {
                buf.put_u8(TAG_FRAG_B);
                buf.put_u32_le(*chunk);
                buf.put_u32_le(*step);
                put_blocks(&mut buf, blocks);
            }
            ToWorker::Retrieve { chunk } => {
                buf.put_u8(TAG_RETRIEVE);
                buf.put_u32_le(*chunk);
            }
            ToWorker::Fail => buf.put_u8(TAG_FAIL),
            ToWorker::Recover => buf.put_u8(TAG_RECOVER),
        }
        buf.freeze()
    }

    /// Deserializes a message.
    ///
    /// # Panics
    /// Panics on a malformed buffer (the transport is trusted in-process).
    pub fn decode(mut buf: Bytes) -> Self {
        match buf.get_u8() {
            TAG_LOAD_C => {
                let descr = get_descr(&mut buf);
                let h = buf.get_u32_le();
                let w = buf.get_u32_le();
                let blocks = get_blocks(&mut buf);
                ToWorker::LoadC {
                    descr,
                    h,
                    w,
                    blocks,
                }
            }
            TAG_FRAG_A => ToWorker::FragA {
                chunk: buf.get_u32_le(),
                step: buf.get_u32_le(),
                blocks: get_blocks(&mut buf),
            },
            TAG_FRAG_B => ToWorker::FragB {
                chunk: buf.get_u32_le(),
                step: buf.get_u32_le(),
                blocks: get_blocks(&mut buf),
            },
            TAG_RETRIEVE => ToWorker::Retrieve {
                chunk: buf.get_u32_le(),
            },
            TAG_FAIL => ToWorker::Fail,
            TAG_RECOVER => ToWorker::Recover,
            tag => panic!("unknown ToWorker tag {tag}"),
        }
    }
}

impl ToMaster {
    /// Serializes the message.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        match self {
            ToMaster::StepDone { chunk, step } => {
                buf.put_u8(TAG_STEP_DONE);
                buf.put_u32_le(*chunk);
                buf.put_u32_le(*step);
            }
            ToMaster::ChunkComputed { chunk } => {
                buf.put_u8(TAG_CHUNK_COMPUTED);
                buf.put_u32_le(*chunk);
            }
            ToMaster::Result { chunk, blocks } => {
                buf.put_u8(TAG_RESULT);
                buf.put_u32_le(*chunk);
                put_blocks(&mut buf, blocks);
            }
        }
        buf.freeze()
    }

    /// Deserializes a message.
    ///
    /// # Panics
    /// Panics on a malformed buffer.
    pub fn decode(mut buf: Bytes) -> Self {
        match buf.get_u8() {
            TAG_STEP_DONE => ToMaster::StepDone {
                chunk: buf.get_u32_le(),
                step: buf.get_u32_le(),
            },
            TAG_CHUNK_COMPUTED => ToMaster::ChunkComputed {
                chunk: buf.get_u32_le(),
            },
            TAG_RESULT => ToMaster::Result {
                chunk: buf.get_u32_le(),
                blocks: get_blocks(&mut buf),
            },
            tag => panic!("unknown ToMaster tag {tag}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn blocks(n: usize, q: usize, seed: u64) -> Vec<Block> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Block::random(q, &mut rng)).collect()
    }

    fn descr() -> ChunkDescr {
        ChunkDescr {
            id: 42,
            c_blocks: 6,
            steps: 4,
            a_blocks_per_step: 2,
            b_blocks_per_step: 3,
            updates_per_step: 6,
            tail: Some(StepCosts {
                a_blocks: 1,
                b_blocks: 2,
                updates: 2,
            }),
        }
    }

    #[test]
    fn load_c_roundtrip() {
        let msg = ToWorker::LoadC {
            descr: descr(),
            h: 2,
            w: 3,
            blocks: blocks(6, 4, 1),
        };
        assert_eq!(ToWorker::decode(msg.encode()), msg);
    }

    #[test]
    fn fragments_roundtrip() {
        let a = ToWorker::FragA {
            chunk: 7,
            step: 3,
            blocks: blocks(2, 5, 2),
        };
        assert_eq!(ToWorker::decode(a.encode()), a);
        let b = ToWorker::FragB {
            chunk: 7,
            step: 3,
            blocks: blocks(3, 5, 3),
        };
        assert_eq!(ToWorker::decode(b.encode()), b);
    }

    #[test]
    fn control_messages_roundtrip_and_are_payload_free() {
        // Tag plus at most two u32 ids: no block payload.
        for msg in [
            ToWorker::Retrieve { chunk: 9 },
            ToWorker::Fail,
            ToWorker::Recover,
        ] {
            assert_eq!(ToWorker::decode(msg.encode()), msg);
            assert!(msg.encode().len() <= 9);
        }
        for msg in [
            ToMaster::StepDone { chunk: 1, step: 2 },
            ToMaster::ChunkComputed { chunk: 1 },
        ] {
            assert_eq!(ToMaster::decode(msg.encode()), msg);
            assert!(msg.encode().len() <= 9);
        }
    }

    #[test]
    fn result_roundtrip() {
        let msg = ToMaster::Result {
            chunk: 3,
            blocks: blocks(4, 3, 4),
        };
        assert_eq!(ToMaster::decode(msg.encode()), msg);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn arbitrary_messages_roundtrip(
            tagsel in 0u8..4,
            chunk in 0u32..10_000,
            step in 0u32..500,
            n in 1usize..6,
            q in 1usize..6,
            seed in 0u64..1_000,
        ) {
            let payload = blocks(n, q, seed);
            let msg = match tagsel {
                0 => ToWorker::FragA { chunk, step, blocks: payload },
                1 => ToWorker::FragB { chunk, step, blocks: payload },
                2 => ToWorker::Retrieve { chunk },
                _ => ToWorker::LoadC {
                    descr: ChunkDescr {
                        id: chunk,
                        c_blocks: n as u64,
                        steps: step + 1,
                        a_blocks_per_step: 1,
                        b_blocks_per_step: 1,
                        updates_per_step: 1,
                        tail: None,
                    },
                    h: 1,
                    w: n as u32,
                    blocks: payload,
                },
            };
            proptest::prop_assert_eq!(ToWorker::decode(msg.encode()), msg);
        }

        #[test]
        fn arbitrary_results_roundtrip(
            chunk in 0u32..10_000,
            n in 1usize..6,
            q in 1usize..6,
            seed in 0u64..1_000,
        ) {
            let msg = ToMaster::Result { chunk, blocks: blocks(n, q, seed) };
            proptest::prop_assert_eq!(ToMaster::decode(msg.encode()), msg);
        }
    }

    #[test]
    fn payload_size_is_dominated_by_coefficients() {
        let msg = ToWorker::FragA {
            chunk: 0,
            step: 0,
            blocks: blocks(10, 8, 5),
        };
        let encoded = msg.encode();
        // 10 blocks × 64 coefficients × 8 bytes = 5120, plus small header.
        assert!(encoded.len() >= 5120);
        assert!(encoded.len() < 5120 + 64);
    }
}
