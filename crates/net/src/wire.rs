//! Binary wire format for master↔worker messages.
//!
//! Layout: a one-byte tag, little-endian integer headers, then raw
//! little-endian `f64` coefficients for block payloads. The encoding is
//! self-describing enough for a socket transport; the in-process runtime
//! round-trips every data message through it so the bytes that "travel"
//! are exactly what a networked deployment would send.
//!
//! A block payload is one [`Tiles`]: `n` square `q × q` tiles in a
//! single contiguous buffer with the shape beside it, not one heap
//! object per block. A fragment therefore costs the transport a fixed
//! number of allocations whatever its block count: the sender writes
//! header and tiles into one exactly-sized buffer — straight from
//! borrowed block slices ([`encode_load_c`], [`encode_frag`]; the
//! `encode` methods go through the same two functions, so there is one
//! encoder) — `freeze` hands that buffer over uncopied, and `decode`
//! converts the coefficients in one bulk pass into one vector, which
//! the worker keeps and computes on in place.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use stargemm_sim::{ChunkDescr, ChunkId, MatKind, StepCosts, StepId};

/// `n` square tiles of side `q`, contiguous, each row-major: the payload
/// of every data message, and the form a worker keeps its operands in.
#[derive(Clone, Debug, PartialEq)]
pub struct Tiles {
    q: usize,
    data: Vec<f64>,
}

impl Tiles {
    /// Wraps `data` as tiles of side `q`.
    ///
    /// # Panics
    /// Panics when `q == 0` or `data` is not a whole number of tiles.
    pub fn new(q: usize, data: Vec<f64>) -> Self {
        assert!(q > 0, "tile side must be positive");
        assert_eq!(data.len() % (q * q), 0, "ragged tile payload");
        Tiles { q, data }
    }

    /// Tile side `q`.
    pub fn q(&self) -> usize {
        self.q
    }

    /// Number of tiles.
    pub fn len(&self) -> usize {
        self.data.len() / (self.q * self.q)
    }

    /// Whether there are no tiles.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Tile `i`, row-major.
    pub fn tile(&self, i: usize) -> &[f64] {
        let qq = self.q * self.q;
        &self.data[i * qq..(i + 1) * qq]
    }

    /// Tile `i`, mutably.
    pub fn tile_mut(&mut self, i: usize) -> &mut [f64] {
        let qq = self.q * self.q;
        &mut self.data[i * qq..(i + 1) * qq]
    }

    /// The tiles in order.
    pub fn iter(&self) -> std::slice::ChunksExact<'_, f64> {
        self.data.chunks_exact(self.q * self.q)
    }
}

#[cfg(test)]
impl Tiles {
    /// `n` tiles of side `q` with coefficients drawn from `[-1, 1)`.
    pub(crate) fn random(n: usize, q: usize, rng: &mut impl rand::Rng) -> Self {
        let data = (0..n * q * q)
            .map(|_| rng.random_range(-1.0..1.0))
            .collect();
        Tiles::new(q, data)
    }
}

/// Messages master → worker.
#[derive(Clone, Debug, PartialEq)]
pub enum ToWorker {
    /// Open a chunk: engine descriptor, local geometry `(h, w)`, and the
    /// chunk's current C tiles (row-major `h × w`).
    LoadC {
        descr: ChunkDescr,
        h: u32,
        w: u32,
        tiles: Tiles,
    },
    /// A tiles of one step, ordered `(i-local major, k minor)`.
    FragA {
        chunk: ChunkId,
        step: StepId,
        tiles: Tiles,
    },
    /// B tiles of one step, ordered `(k major, j-local minor)`.
    FragB {
        chunk: ChunkId,
        step: StepId,
        tiles: Tiles,
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
    /// The chunk's C tiles, row-major (data message, throttled).
    Result { chunk: ChunkId, tiles: Tiles },
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

/// Encoded size of a tile payload: the `(n, q)` header and the
/// coefficients.
fn tiles_len(n: usize, q: usize) -> usize {
    4 + 4 + n * q * q * 8
}

/// Appends `n` tiles of side `q`: the count and side, then every
/// coefficient converted in bulk into the (already reserved) tail.
fn put_tiles<'a>(buf: &mut BytesMut, n: usize, q: usize, tiles: impl Iterator<Item = &'a [f64]>) {
    buf.put_u32_le(n as u32);
    buf.put_u32_le(q as u32);
    let tile_bytes = q * q * 8;
    let mut at = buf.len();
    buf.resize(at + n * tile_bytes, 0);
    for tile in tiles {
        assert_eq!(tile.len(), q * q, "mixed tile sides in one message");
        let raw = &mut buf[at..at + tile_bytes];
        for (dst, x) in raw.chunks_exact_mut(8).zip(tile) {
            dst.copy_from_slice(&x.to_le_bytes());
        }
        at += tile_bytes;
    }
    assert_eq!(at, buf.len(), "tile count disagrees with the header");
}

fn get_tiles(buf: &mut Bytes) -> Tiles {
    let n = buf.get_u32_le() as usize;
    let q = buf.get_u32_le() as usize;
    // The size is checked against the bytes really there before
    // anything is allocated for it.
    let len = [q, q, 8]
        .iter()
        .try_fold(n, |len, &by| len.checked_mul(by))
        .expect("tile payload size overflows");
    let data = buf.chunk()[..len]
        .chunks_exact(8)
        .map(|raw| f64::from_le_bytes(raw.try_into().expect("chunks of 8")))
        .collect();
    buf.advance(len);
    Tiles::new(q, data)
}

/// Encoded size of a chunk descriptor.
fn descr_len(d: &ChunkDescr) -> usize {
    4 + 8 + 4 + 8 + 8 + 8 + 1 + if d.tail.is_some() { 24 } else { 0 }
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

/// Encodes a [`ToWorker::LoadC`] whose `n = h · w` tiles of side `q` are
/// borrowed from wherever they live, into one exactly-sized buffer.
pub fn encode_load_c<'a>(
    descr: &ChunkDescr,
    h: u32,
    w: u32,
    q: usize,
    tiles: impl Iterator<Item = &'a [f64]>,
) -> Bytes {
    let n = h as usize * w as usize;
    let mut buf = BytesMut::with_capacity(1 + descr_len(descr) + 4 + 4 + tiles_len(n, q));
    buf.put_u8(TAG_LOAD_C);
    put_descr(&mut buf, descr);
    buf.put_u32_le(h);
    buf.put_u32_le(w);
    put_tiles(&mut buf, n, q, tiles);
    buf.freeze()
}

/// Encodes the [`ToWorker::FragA`] (`kind` A) or [`ToWorker::FragB`]
/// (`kind` B) of `(chunk, step)` whose `n` tiles of side `q` are
/// borrowed from wherever they live, into one exactly-sized buffer.
///
/// # Panics
/// Panics when `kind` is C (a C load is [`encode_load_c`]).
pub fn encode_frag<'a>(
    kind: MatKind,
    chunk: ChunkId,
    step: StepId,
    n: usize,
    q: usize,
    tiles: impl Iterator<Item = &'a [f64]>,
) -> Bytes {
    let mut buf = BytesMut::with_capacity(1 + 4 + 4 + tiles_len(n, q));
    buf.put_u8(match kind {
        MatKind::A => TAG_FRAG_A,
        MatKind::B => TAG_FRAG_B,
        MatKind::C => panic!("a C fragment is a chunk load"),
    });
    buf.put_u32_le(chunk);
    buf.put_u32_le(step);
    put_tiles(&mut buf, n, q, tiles);
    buf.freeze()
}

/// Encodes a payload-free control message: a tag and its ids.
fn control(tag: u8, ids: &[u32]) -> Bytes {
    let mut buf = BytesMut::with_capacity(1 + 4 * ids.len());
    buf.put_u8(tag);
    for &id in ids {
        buf.put_u32_le(id);
    }
    buf.freeze()
}

impl ToWorker {
    /// Serializes the message.
    pub fn encode(&self) -> Bytes {
        match self {
            ToWorker::LoadC { descr, h, w, tiles } => {
                encode_load_c(descr, *h, *w, tiles.q(), tiles.iter())
            }
            ToWorker::FragA { chunk, step, tiles } => {
                let (n, q) = (tiles.len(), tiles.q());
                encode_frag(MatKind::A, *chunk, *step, n, q, tiles.iter())
            }
            ToWorker::FragB { chunk, step, tiles } => {
                let (n, q) = (tiles.len(), tiles.q());
                encode_frag(MatKind::B, *chunk, *step, n, q, tiles.iter())
            }
            ToWorker::Retrieve { chunk } => control(TAG_RETRIEVE, &[*chunk]),
            ToWorker::Fail => control(TAG_FAIL, &[]),
            ToWorker::Recover => control(TAG_RECOVER, &[]),
        }
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
                let tiles = get_tiles(&mut buf);
                ToWorker::LoadC { descr, h, w, tiles }
            }
            TAG_FRAG_A => ToWorker::FragA {
                chunk: buf.get_u32_le(),
                step: buf.get_u32_le(),
                tiles: get_tiles(&mut buf),
            },
            TAG_FRAG_B => ToWorker::FragB {
                chunk: buf.get_u32_le(),
                step: buf.get_u32_le(),
                tiles: get_tiles(&mut buf),
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
        match self {
            ToMaster::StepDone { chunk, step } => control(TAG_STEP_DONE, &[*chunk, *step]),
            ToMaster::ChunkComputed { chunk } => control(TAG_CHUNK_COMPUTED, &[*chunk]),
            ToMaster::Result { chunk, tiles } => {
                let (n, q) = (tiles.len(), tiles.q());
                let mut buf = BytesMut::with_capacity(1 + 4 + tiles_len(n, q));
                buf.put_u8(TAG_RESULT);
                buf.put_u32_le(*chunk);
                put_tiles(&mut buf, n, q, tiles.iter());
                buf.freeze()
            }
        }
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
                tiles: get_tiles(&mut buf),
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

    fn tiles(n: usize, q: usize, seed: u64) -> Tiles {
        Tiles::random(n, q, &mut StdRng::seed_from_u64(seed))
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
            tiles: tiles(6, 4, 1),
        };
        assert_eq!(ToWorker::decode(msg.encode()), msg);
    }

    #[test]
    fn fragments_roundtrip() {
        let a = ToWorker::FragA {
            chunk: 7,
            step: 3,
            tiles: tiles(2, 5, 2),
        };
        assert_eq!(ToWorker::decode(a.encode()), a);
        let b = ToWorker::FragB {
            chunk: 7,
            step: 3,
            tiles: tiles(3, 5, 3),
        };
        assert_eq!(ToWorker::decode(b.encode()), b);
    }

    /// The format is pinned byte for byte: tag, `chunk`, `step`, tile
    /// count, tile side (little-endian `u32`s), then the coefficients as
    /// raw little-endian `f64`s, tile after tile.
    #[test]
    fn frag_a_bytes_are_golden() {
        let msg = ToWorker::FragA {
            chunk: 0x0102,
            step: 3,
            tiles: Tiles::new(1, vec![1.0, -2.5]),
        };
        #[rustfmt::skip]
        let golden: [u8; 33] = [
            2,                      // TAG_FRAG_A
            0x02, 0x01, 0, 0,       // chunk
            3, 0, 0, 0,             // step
            2, 0, 0, 0,             // n tiles
            1, 0, 0, 0,             // q
            0, 0, 0, 0, 0, 0, 0xF0, 0x3F, //  1.0
            0, 0, 0, 0, 0, 0, 0x04, 0xC0, // -2.5
        ];
        assert_eq!(msg.encode().as_ref(), golden);
        assert_eq!(ToWorker::decode(Bytes::copy_from_slice(&golden)), msg);
    }

    /// Encoding from borrowed slices — the reactor's path — writes the
    /// bytes `encode` writes, into a buffer of exactly that size.
    #[test]
    fn borrowed_tiles_encode_to_the_same_bytes() {
        let t = tiles(6, 3, 9);
        let scattered: Vec<Vec<f64>> = t.iter().map(<[f64]>::to_vec).collect();
        let borrowed = || scattered.iter().map(Vec::as_slice);
        let load = ToWorker::LoadC {
            descr: descr(),
            h: 2,
            w: 3,
            tiles: t.clone(),
        };
        assert_eq!(encode_load_c(&descr(), 2, 3, 3, borrowed()), load.encode());
        let frag = ToWorker::FragB {
            chunk: 5,
            step: 1,
            tiles: t,
        };
        let encoded = encode_frag(MatKind::B, 5, 1, 6, 3, borrowed());
        assert_eq!(encoded, frag.encode());
        assert_eq!(encoded.len(), 1 + 4 + 4 + 4 + 4 + 6 * 9 * 8);
    }

    #[test]
    #[should_panic(expected = "tile count")]
    fn a_short_tile_iterator_is_caught() {
        let t = tiles(2, 2, 1);
        let _ = encode_frag(MatKind::A, 0, 0, 3, 2, t.iter());
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
            tiles: tiles(4, 3, 4),
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
            let payload = tiles(n, q, seed);
            let msg = match tagsel {
                0 => ToWorker::FragA { chunk, step, tiles: payload },
                1 => ToWorker::FragB { chunk, step, tiles: payload },
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
                    tiles: payload,
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
            let msg = ToMaster::Result { chunk, tiles: tiles(n, q, seed) };
            proptest::prop_assert_eq!(ToMaster::decode(msg.encode()), msg);
        }
    }

    #[test]
    fn payload_size_is_dominated_by_coefficients() {
        let msg = ToWorker::FragA {
            chunk: 0,
            step: 0,
            tiles: tiles(10, 8, 5),
        };
        let encoded = msg.encode();
        // 10 blocks × 64 coefficients × 8 bytes = 5120, plus small header.
        assert!(encoded.len() >= 5120);
        assert!(encoded.len() < 5120 + 64);
    }
}
