//! Dependency-free SHA-256.
//!
//! Every cache key in the incremental pipeline is a 256-bit digest. A
//! 64-bit hash such as FNV-1a (the previous scheme) is fine for hash-map
//! bucketing but too narrow for content addressing: a persistent cache
//! that survives across processes must make accidental collisions
//! astronomically unlikely, since a collision silently serves the wrong
//! artifact. SHA-256 is hand-rolled here (FIPS 180-4) so the crate stays
//! dependency-free.

use std::fmt;

/// A 256-bit digest. Used as the content-address of every cached artifact.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// Lower-case hex rendering, 64 chars.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push(char::from_digit(u32::from(b >> 4), 16).unwrap());
            s.push(char::from_digit(u32::from(b & 0xf), 16).unwrap());
        }
        s
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 hasher. Feed bytes with [`Sha256::update`] (or the
/// chaining [`Sha256::chain`]) and close with [`Sha256::finalize`].
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            self.compress(&b);
            data = rest;
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Chaining variant of [`Sha256::update`], handy for key derivation:
    /// `Sha256::new().chain(tag).chain(a).chain(b).finalize()`.
    #[must_use]
    pub fn chain(mut self, data: &[u8]) -> Self {
        self.update(data);
        self
    }

    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        // Length goes straight into the buffer: update() would recount it.
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);
        let mut out = [0u8; 32];
        for (i, w) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        Digest(out)
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// Lets a `#[derive(Hash)]` value stream itself into the digest
/// (`value.hash(&mut sha)`), so a content key covers every field of the
/// value by construction. What a std type writes into a `Hash` stream is
/// only specified within one build: digests made this way are in-memory
/// keys and must never be written to disk.
///
/// Integers stream as LEB128 varints rather than as fixed-width bytes. A
/// derived stream is mostly small lengths, indices and discriminants, so
/// this hashes several times fewer bytes; the encoding is canonical and
/// prefix-free, so distinct values still stream distinct bytes.
impl std::hash::Hasher for Sha256 {
    fn write(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }

    fn write_u64(&mut self, mut n: u64) {
        let mut buf = [0u8; 10];
        let mut len = 0;
        loop {
            buf[len] = n as u8 & 0x7f;
            n >>= 7;
            len += 1;
            if n == 0 {
                break;
            }
            buf[len - 1] |= 0x80;
        }
        self.update(&buf[..len]);
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write_isize(&mut self, n: isize) {
        self.write_u64(n as u64);
    }

    /// The first 8 bytes of the digest of everything written so far; the
    /// hasher itself stays open.
    fn finish(&self) -> u64 {
        let d = self.clone().finalize();
        u64::from_le_bytes(d.0[..8].try_into().expect("a SHA-256 digest has 32 bytes"))
    }
}

/// One-shot digest of `data`.
pub fn digest(data: &[u8]) -> Digest {
    Sha256::new().chain(data).finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    // FIPS 180-4 / RFC 6234 known-answer vectors: a wrong constant,
    // rotation, or padding rule fails one of these immediately.
    #[test]
    fn pinned_empty_digest() {
        assert_eq!(
            digest(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn pinned_abc_digest() {
        assert_eq!(
            digest(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn pinned_two_block_digest() {
        // 56 bytes: padding spills into a second block.
        assert_eq!(
            digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn pinned_million_a_digest() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 10_000];
        for _ in 0..100 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_oneshot_at_every_split() {
        let data: Vec<u8> = (0u16..300).map(|i| (i % 251) as u8).collect();
        let whole = digest(&data);
        for split in [0, 1, 63, 64, 65, 127, 128, 129, 299, 300] {
            let d = Sha256::new()
                .chain(&data[..split])
                .chain(&data[split..])
                .finalize();
            assert_eq!(d, whole, "split at {split}");
        }
    }

    #[test]
    fn hasher_streams_into_the_digest() {
        use std::hash::{Hash, Hasher};
        let mut h = Sha256::new();
        h.write(b"ab");
        h.write(b"c");
        let expect = digest(b"abc");
        assert_eq!(h.finish().to_le_bytes(), expect.0[..8]);
        assert_eq!(h.finish(), h.finish(), "finish leaves the hasher open");
        assert_eq!(h.finalize(), expect);
        let of = |v: &(u32, &str)| {
            let mut h = Sha256::new();
            v.hash(&mut h);
            h.finalize()
        };
        assert_eq!(of(&(1, "x")), of(&(1, "x")));
        assert_ne!(of(&(1, "x")), of(&(2, "x")));
        assert_ne!(of(&(1, "x")), of(&(1, "y")));
        // Varint integers: 0x80 is two bytes, and no sequence of
        // integers streams the same bytes as another.
        let ints = |ns: &[u64]| {
            let mut h = Sha256::new();
            ns.iter().for_each(|&n| h.write_u64(n));
            h.finalize()
        };
        assert_eq!(ints(&[0x80]), digest(&[0x80, 0x01]));
        assert_eq!(ints(&[u64::MAX]), {
            let mut max = [0xff; 10];
            max[9] = 0x01;
            digest(&max)
        });
        let seqs: [&[u64]; 7] = [
            &[0],
            &[127],
            &[128],
            &[1, 0],
            &[0x80, 1],
            &[0, 0],
            &[u64::MAX],
        ];
        for (i, a) in seqs.iter().enumerate() {
            for b in &seqs[i + 1..] {
                assert_ne!(ints(a), ints(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn hex_roundtrip_shape() {
        let d = digest(b"longnail");
        assert_eq!(d.to_hex().len(), 64);
        assert_eq!(format!("{d}"), d.to_hex());
        assert!(format!("{d:?}").starts_with("Digest("));
    }
}
