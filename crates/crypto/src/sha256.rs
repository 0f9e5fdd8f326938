//! SHA-256 (FIPS 180-4).
//!
//! Streaming implementation: feed arbitrary chunks with [`Sha256::update`]
//! and call [`Sha256::finalize`] for the 32-byte digest. The one-shot
//! [`sha256`] helper covers the common case.
//!
//! Two back-ends compute the compression function: the portable one in
//! this file, and [`ni`] on x86-64 CPUs with the SHA extensions.
//! [`Sha256::new`] picks once per hasher, from what the CPU reports;
//! nothing else in the workspace can choose. Every HMAC-SHA256 user —
//! channel records, Merkle nodes, the WAL and audit chains, HKDF —
//! inherits the choice through it.

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod ni;

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;
/// Internal block size in bytes.
pub const BLOCK_LEN: usize = 64;

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

/// Which code computes the compression function for one hasher.
#[derive(Clone, Copy)]
enum Backend {
    Soft,
    #[cfg(target_arch = "x86_64")]
    Ni(ni::Detected),
}

impl Backend {
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if let Some(sha) = ni::Detected::get() {
            return Backend::Ni(sha);
        }
        Backend::Soft
    }

    /// Fold whole blocks into `state`.
    fn compress(self, state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
        match self {
            Backend::Soft => blocks.iter().for_each(|b| compress(state, b)),
            #[cfg(target_arch = "x86_64")]
            Backend::Ni(sha) => sha.compress(state, blocks),
        }
    }
}

/// Streaming SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    backend: Backend,
    state: [u32; 8],
    /// Bytes processed so far (for the length suffix).
    len: u64,
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher on the fastest back-end this CPU supports.
    pub fn new() -> Self {
        Self::with_backend(Backend::detect())
    }

    /// The portable back-end regardless of what the CPU offers, so tests
    /// cover it on SHA-NI machines too.
    #[cfg(test)]
    pub(crate) fn new_portable() -> Self {
        Self::with_backend(Backend::Soft)
    }

    fn with_backend(backend: Backend) -> Self {
        Sha256 { backend, state: H0, len: 0, buf: [0; BLOCK_LEN], buf_len: 0 }
    }

    /// Absorb `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < BLOCK_LEN {
                return;
            }
            self.backend.compress(&mut self.state, std::slice::from_ref(&self.buf));
            self.buf_len = 0;
        }
        // Whole blocks are hashed where they lie; only the tail is copied.
        let (blocks, tail) = rest.as_chunks::<BLOCK_LEN>();
        self.backend.compress(&mut self.state, blocks);
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Consume the hasher and produce the digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.len.wrapping_mul(8);
        // Padding in one shot: 0x80, zeros to the length field (spilling
        // into one more block when fewer than 8 bytes remain), bit length.
        let used = self.buf_len;
        self.buf[used] = 0x80;
        self.buf[used + 1..].fill(0);
        if used + 1 > BLOCK_LEN - 8 {
            self.backend.compress(&mut self.state, std::slice::from_ref(&self.buf));
            self.buf.fill(0);
        }
        self.buf[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
        self.backend.compress(&mut self.state, std::slice::from_ref(&self.buf));
        let mut out = [0u8; DIGEST_LEN];
        for (bytes, w) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&w.to_be_bytes());
        }
        out
    }
}

/// The FIPS 180-4 §6.2.2 compression function, portable.
fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 64];
    for (wi, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *wi = u32::from_be_bytes(bytes.try_into().expect("4-byte word"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
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
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Hash the concatenation of several byte strings without allocating.
pub fn sha256_concat(parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// A fresh hasher per back-end: always the portable one, plus the
    /// hardware one where the CPU has it (a printed note where not).
    fn backends() -> Vec<(&'static str, Sha256)> {
        let mut all = vec![("portable", Sha256::new_portable())];
        match Sha256::new().backend {
            Backend::Soft => eprintln!("note: no SHA extensions on this CPU, hardware half skipped"),
            #[cfg(target_arch = "x86_64")]
            Backend::Ni(_) => all.push(("sha-ni", Sha256::new())),
        }
        all
    }

    /// Hex digest of `data` on every back-end (asserting they agree).
    fn digest_on_all(data: &[u8]) -> String {
        let digests: Vec<String> = backends()
            .into_iter()
            .map(|(_, mut h)| {
                h.update(data);
                hex(&h.finalize())
            })
            .collect();
        assert!(digests.iter().all(|d| *d == digests[0]), "back-ends disagree: {digests:?}");
        digests[0].clone()
    }

    #[test]
    fn empty_vector() {
        let want = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
        assert_eq!(digest_on_all(b""), want);
        assert_eq!(hex(&sha256(b"")), want);
    }

    #[test]
    fn abc_vector() {
        let want = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
        assert_eq!(digest_on_all(b"abc"), want);
        assert_eq!(hex(&sha256(b"abc")), want);
    }

    #[test]
    fn two_block_vector() {
        let msg = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
        let want = "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1";
        assert_eq!(digest_on_all(msg), want);
        assert_eq!(hex(&sha256(msg)), want);
    }

    #[test]
    fn million_a_vector() {
        for (name, mut h) in backends() {
            let chunk = [b'a'; 1000];
            for _ in 0..1000 {
                h.update(&chunk);
            }
            assert_eq!(
                hex(&h.finalize()),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{name}"
            );
        }
    }

    /// The portable code is the oracle: at every length from nothing to
    /// a page and a bit (every padding shape, every multi-block run
    /// length up to 64) the hardware back-end produces its digest.
    #[test]
    fn backends_agree_at_every_length() {
        let data: Vec<u8> = (0..4112u32).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8).collect();
        for len in 0..=data.len() {
            digest_on_all(&data[..len]);
        }
    }

    /// …and under arbitrary `update` splits (partial-block carry-over in
    /// front of a multi-block run, runs ending mid-block).
    #[test]
    fn backends_agree_under_random_update_splits() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5a17);
        for _ in 0..200 {
            let len = rng.gen_range(0..3000usize);
            let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let want = hex(&sha256(&data));
            for (name, mut h) in backends() {
                let mut rest = data.as_slice();
                while !rest.is_empty() {
                    let take = rng.gen_range(0..=rest.len().min(300));
                    h.update(&rest[..take]);
                    rest = &rest[take..];
                }
                assert_eq!(hex(&h.finalize()), want, "{name}, len {len}");
            }
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1337u32).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 17, 63, 64, 65, 500, 1336, 1337] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    /// Known answers (hashlib) at every length where the one-shot padding
    /// changes shape: the last length whose padding fits the block (55),
    /// the first that spills (56), and a full block either side.
    #[test]
    fn boundary_length_digests() {
        let expected = [
            (55, "16fa57a0a3423a715d594516339f36189d6b5f93754a9714fef202616a9fabfe"),
            (56, "c37b44e5f1b18554b36966f4f8e08bfbf3164c4b6c10374d12d89850892073c5"),
            (57, "12b234922502022f755ab8550a3d4e202ad39c81d961a4f59ec39d5fd83d15a7"),
            (63, "bbba992d2c85af960fb2987a1fd05e0aa82a3db3c740dd8982a9e273b75e36a3"),
            (64, "66bd4633ed6f71c4ecfa4763bf7ba1c8ec7612de9aa6c0578a7b675207c71e0b"),
            (65, "9f7dc47107b750a1f3d35db5d9547f24ef40da5b731b9540d4f43710a154f6c9"),
        ];
        for (len, digest) in expected {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + 1) as u8).collect();
            assert_eq!(hex(&sha256(&data)), digest, "len {len}");
        }
    }

    #[test]
    fn length_boundary_paddings() {
        // Exercise all message lengths around the 56-byte padding boundary.
        for len in 50..70 {
            let data = vec![0xabu8; len];
            let d = sha256(&data);
            // Re-hash via byte-at-a-time streaming and compare.
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d, "len {len}");
        }
    }

    #[test]
    fn concat_helper_equals_contiguous() {
        let a = b"hello ".as_slice();
        let b = b"world".as_slice();
        assert_eq!(sha256_concat(&[a, b]), sha256(b"hello world"));
    }
}
