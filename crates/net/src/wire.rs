//! Binary wire format for master → worker messages.
//!
//! Layout: a one-byte tag, little-endian integer headers, then raw
//! little-endian `f64` coefficients for block payloads. The encoding is
//! self-describing enough for a socket transport; the in-process runtime
//! round-trips every chunk load and fragment through it so the bytes
//! that "travel" are exactly what a networked deployment would send.
//! Worker replies ([`ToMaster`]) reach the master in-process as values
//! and have no encoding.
//!
//! A block payload is one [`Tiles`]: `n` square `q × q` tiles in a
//! single contiguous buffer with the shape beside it, not one heap
//! object per block. The sender writes header and tiles into a byte
//! buffer it passes in and reuses — straight from borrowed runs of whole
//! tiles, which is how a block-major `BlockMatrix` keeps a chunk row, so
//! a row is one copy ([`encode_load_c`], [`encode_frag`];
//! [`ToWorker::encode`] goes through the same two functions, so there is
//! one encoder) — and the decoder reads that buffer through a borrowed
//! cursor, converting the coefficients in one bulk pass into one
//! vector, which the worker keeps and computes on in place. The reactor
//! decodes into vectors taken from a `TilePool` that spent payloads are
//! handed back to, so in steady state a message allocates nothing at
//! all.

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

    /// Every tile, end to end.
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.data
    }
}

/// Spare coefficient vectors for the decoder to fill: a payload whose
/// tiles are spent is handed back with [`TilePool::give`], and the next
/// decode reuses its vector instead of allocating one. Vectors of any
/// size are mixed; one too small for a payload grows once, so after a
/// few messages every vector fits and decoding allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct TilePool(Vec<Vec<f64>>);

impl TilePool {
    /// Takes back the buffer of tiles nobody reads any more.
    pub(crate) fn give(&mut self, tiles: Tiles) {
        self.0.push(tiles.data);
    }

    /// An empty vector, with the capacity of the last one given back.
    fn take(&mut self) -> Vec<f64> {
        let mut data = self.0.pop().unwrap_or_default();
        data.clear();
        data
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

/// Messages worker → master, delivered in-process (no wire encoding).
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

/// Encoded size of a tile payload: the `(n, q)` header and the
/// coefficients.
fn tiles_len(n: usize, q: usize) -> usize {
    4 + 4 + n * q * q * 8
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// A read cursor over an encoded message, consumed from the front.
///
/// Every read panics when the message is shorter than it claims (the
/// transport is trusted in-process).
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    /// The next `n` bytes.
    fn take(&mut self, n: usize) -> &'a [u8] {
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        head
    }

    fn u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().expect("4 bytes"))
    }

    fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().expect("8 bytes"))
    }
}

/// Appends `n` tiles of side `q`: the count and side, then every
/// coefficient converted in bulk into the (already reserved) tail. The
/// tiles come as `runs`, each of one or more whole tiles end to end — a
/// chunk row of a block-major matrix is one run, and one copy.
fn put_tiles<'a>(buf: &mut Vec<u8>, n: usize, q: usize, runs: impl Iterator<Item = &'a [f64]>) {
    put_u32(buf, n as u32);
    put_u32(buf, q as u32);
    let mut at = buf.len();
    buf.resize(at + n * q * q * 8, 0);
    for run in runs {
        assert_eq!(run.len() % (q * q), 0, "a run of other than whole tiles");
        let raw = &mut buf[at..at + run.len() * 8];
        for (dst, x) in raw.chunks_exact_mut(8).zip(run) {
            dst.copy_from_slice(&x.to_le_bytes());
        }
        at += raw.len();
    }
    assert_eq!(at, buf.len(), "tile count disagrees with the header");
}

fn get_tiles(buf: &mut Reader, pool: &mut TilePool) -> Tiles {
    let n = buf.u32() as usize;
    let q = buf.u32() as usize;
    // The size is checked against the bytes really there before
    // anything is allocated for it.
    let len = [q, q, 8]
        .iter()
        .try_fold(n, |len, &by| len.checked_mul(by))
        .expect("tile payload size overflows");
    let mut data = pool.take();
    data.extend(
        buf.take(len)
            .chunks_exact(8)
            .map(|raw| f64::from_le_bytes(raw.try_into().expect("chunks of 8"))),
    );
    Tiles::new(q, data)
}

/// Encoded size of a chunk descriptor.
fn descr_len(d: &ChunkDescr) -> usize {
    4 + 8 + 4 + 8 + 8 + 8 + 1 + if d.tail.is_some() { 24 } else { 0 }
}

fn put_descr(buf: &mut Vec<u8>, d: &ChunkDescr) {
    put_u32(buf, d.id);
    put_u64(buf, d.c_blocks);
    put_u32(buf, d.steps);
    put_u64(buf, d.a_blocks_per_step);
    put_u64(buf, d.b_blocks_per_step);
    put_u64(buf, d.updates_per_step);
    match d.tail {
        None => buf.push(0),
        Some(t) => {
            buf.push(1);
            put_u64(buf, t.a_blocks);
            put_u64(buf, t.b_blocks);
            put_u64(buf, t.updates);
        }
    }
}

fn get_descr(buf: &mut Reader) -> ChunkDescr {
    let id = buf.u32();
    let c_blocks = buf.u64();
    let steps = buf.u32();
    let a = buf.u64();
    let b = buf.u64();
    let u = buf.u64();
    let tail = if buf.u8() == 1 {
        Some(StepCosts {
            a_blocks: buf.u64(),
            b_blocks: buf.u64(),
            updates: buf.u64(),
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

/// Empties `buf` and makes room for a message of `len` bytes, so that a
/// buffer reused for every message grows only to the largest one.
fn start(buf: &mut Vec<u8>, len: usize) {
    buf.clear();
    buf.reserve(len);
}

/// Encodes into `buf` (emptied first) a [`ToWorker::LoadC`] whose
/// `n = h · w` tiles of side `q` are borrowed from wherever they live,
/// in runs of whole tiles.
pub fn encode_load_c<'a>(
    buf: &mut Vec<u8>,
    descr: &ChunkDescr,
    h: u32,
    w: u32,
    q: usize,
    runs: impl Iterator<Item = &'a [f64]>,
) {
    let n = h as usize * w as usize;
    start(buf, 1 + descr_len(descr) + 4 + 4 + tiles_len(n, q));
    buf.push(TAG_LOAD_C);
    put_descr(buf, descr);
    put_u32(buf, h);
    put_u32(buf, w);
    put_tiles(buf, n, q, runs);
}

/// Encodes into `buf` (emptied first) the [`ToWorker::FragA`] (`kind` A)
/// or [`ToWorker::FragB`] (`kind` B) of `(chunk, step)` whose `n` tiles
/// of side `q` are borrowed from wherever they live, in runs of whole
/// tiles.
///
/// # Panics
/// Panics when `kind` is C (a C load is [`encode_load_c`]).
pub fn encode_frag<'a>(
    buf: &mut Vec<u8>,
    kind: MatKind,
    chunk: ChunkId,
    step: StepId,
    n: usize,
    q: usize,
    runs: impl Iterator<Item = &'a [f64]>,
) {
    start(buf, 1 + 4 + 4 + tiles_len(n, q));
    buf.push(match kind {
        MatKind::A => TAG_FRAG_A,
        MatKind::B => TAG_FRAG_B,
        MatKind::C => panic!("a C fragment is a chunk load"),
    });
    put_u32(buf, chunk);
    put_u32(buf, step);
    put_tiles(buf, n, q, runs);
}

/// Encodes into `buf` (emptied first) a payload-free control message: a
/// tag and its ids.
fn control(buf: &mut Vec<u8>, tag: u8, ids: &[u32]) {
    start(buf, 1 + 4 * ids.len());
    buf.push(tag);
    for &id in ids {
        put_u32(buf, id);
    }
}

impl ToWorker {
    /// Serializes the message.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            ToWorker::LoadC { descr, h, w, tiles } => {
                let all = std::iter::once(tiles.as_slice());
                encode_load_c(&mut buf, descr, *h, *w, tiles.q(), all);
            }
            ToWorker::FragA { chunk, step, tiles } => {
                let (n, q, all) = (tiles.len(), tiles.q(), std::iter::once(tiles.as_slice()));
                encode_frag(&mut buf, MatKind::A, *chunk, *step, n, q, all);
            }
            ToWorker::FragB { chunk, step, tiles } => {
                let (n, q, all) = (tiles.len(), tiles.q(), std::iter::once(tiles.as_slice()));
                encode_frag(&mut buf, MatKind::B, *chunk, *step, n, q, all);
            }
            ToWorker::Retrieve { chunk } => control(&mut buf, TAG_RETRIEVE, &[*chunk]),
            ToWorker::Fail => control(&mut buf, TAG_FAIL, &[]),
            ToWorker::Recover => control(&mut buf, TAG_RECOVER, &[]),
        }
        buf
    }

    /// Deserializes a message.
    ///
    /// # Panics
    /// Panics on a malformed buffer (the transport is trusted in-process).
    pub fn decode(buf: &[u8]) -> Self {
        Self::decode_pooled(buf, &mut TilePool::default())
    }

    /// [`ToWorker::decode`], with the payload decoded into a vector from
    /// `pool`.
    pub(crate) fn decode_pooled(buf: &[u8], pool: &mut TilePool) -> Self {
        let mut buf = Reader(buf);
        match buf.u8() {
            TAG_LOAD_C => {
                let descr = get_descr(&mut buf);
                let h = buf.u32();
                let w = buf.u32();
                let tiles = get_tiles(&mut buf, pool);
                ToWorker::LoadC { descr, h, w, tiles }
            }
            TAG_FRAG_A => ToWorker::FragA {
                chunk: buf.u32(),
                step: buf.u32(),
                tiles: get_tiles(&mut buf, pool),
            },
            TAG_FRAG_B => ToWorker::FragB {
                chunk: buf.u32(),
                step: buf.u32(),
                tiles: get_tiles(&mut buf, pool),
            },
            TAG_RETRIEVE => ToWorker::Retrieve { chunk: buf.u32() },
            TAG_FAIL => ToWorker::Fail,
            TAG_RECOVER => ToWorker::Recover,
            tag => panic!("unknown ToWorker tag {tag}"),
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
        assert_eq!(ToWorker::decode(&msg.encode()), msg);
    }

    #[test]
    fn fragments_roundtrip() {
        let a = ToWorker::FragA {
            chunk: 7,
            step: 3,
            tiles: tiles(2, 5, 2),
        };
        assert_eq!(ToWorker::decode(&a.encode()), a);
        let b = ToWorker::FragB {
            chunk: 7,
            step: 3,
            tiles: tiles(3, 5, 3),
        };
        assert_eq!(ToWorker::decode(&b.encode()), b);
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
        assert_eq!(msg.encode(), golden);
        assert_eq!(ToWorker::decode(&golden), msg);
    }

    /// Encoding from borrowed slices into one reused buffer — the
    /// reactor's path — writes the bytes `encode` writes, whatever the
    /// buffer held before.
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
        let mut buf = Vec::new();
        encode_load_c(&mut buf, &descr(), 2, 3, 3, borrowed());
        assert_eq!(buf, load.encode());
        let frag = ToWorker::FragB {
            chunk: 5,
            step: 1,
            tiles: t,
        };
        encode_frag(&mut buf, MatKind::B, 5, 1, 6, 3, borrowed());
        assert_eq!(buf, frag.encode());
        assert_eq!(buf.len(), 1 + 4 + 4 + 4 + 4 + 6 * 9 * 8);
    }

    /// Runs of several whole tiles — a block-major matrix's chunk rows —
    /// encode the bytes the same tiles give one at a time.
    #[test]
    fn runs_of_tiles_encode_like_single_tiles() {
        let t = tiles(6, 3, 7);
        let mut by_tile = Vec::new();
        encode_frag(&mut by_tile, MatKind::A, 2, 1, 6, 3, t.iter());
        let mut by_row = Vec::new();
        let rows = t.as_slice().chunks_exact(3 * 9);
        encode_frag(&mut by_row, MatKind::A, 2, 1, 6, 3, rows);
        assert_eq!(by_row, by_tile);
    }

    #[test]
    #[should_panic(expected = "whole tiles")]
    fn a_run_of_partial_tiles_is_caught() {
        let t = tiles(2, 3, 7);
        let (head, tail) = t.as_slice().split_at(10);
        encode_frag(
            &mut Vec::new(),
            MatKind::A,
            2,
            1,
            2,
            3,
            [head, tail].into_iter(),
        );
    }

    /// Decoding through a pool gives the message `decode` gives, in a
    /// vector the pool handed out: spent payloads of any size come back
    /// and are refilled without an allocation.
    #[test]
    fn pooled_decoding_reuses_spent_payloads() {
        let mut pool = TilePool::default();
        let big = ToWorker::FragA {
            chunk: 1,
            step: 0,
            tiles: tiles(6, 3, 4),
        };
        let small = ToWorker::FragB {
            chunk: 1,
            step: 0,
            tiles: tiles(2, 3, 5),
        };
        let ToWorker::FragA { tiles: spent, .. } =
            ToWorker::decode_pooled(&big.encode(), &mut pool)
        else {
            panic!("not a FragA");
        };
        let at = spent.data.as_ptr();
        pool.give(spent);
        let got = ToWorker::decode_pooled(&small.encode(), &mut pool);
        assert_eq!(got, small);
        let ToWorker::FragB { tiles, .. } = got else {
            panic!("not a FragB");
        };
        assert_eq!(tiles.data.as_ptr(), at, "the spent vector is reused");
        assert!(pool.0.is_empty());
    }

    #[test]
    #[should_panic(expected = "tile count")]
    fn a_short_tile_iterator_is_caught() {
        let t = tiles(2, 2, 1);
        encode_frag(&mut Vec::new(), MatKind::A, 0, 0, 3, 2, t.iter());
    }

    #[test]
    fn control_messages_roundtrip_and_are_payload_free() {
        // Tag plus at most one u32 id: no block payload.
        for msg in [
            ToWorker::Retrieve { chunk: 9 },
            ToWorker::Fail,
            ToWorker::Recover,
        ] {
            assert_eq!(ToWorker::decode(&msg.encode()), msg);
            assert!(msg.encode().len() <= 5);
        }
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
            proptest::prop_assert_eq!(ToWorker::decode(&msg.encode()), msg);
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
