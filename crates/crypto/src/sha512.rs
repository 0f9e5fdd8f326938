//! SHA-512 (FIPS 180-4).
//!
//! The paper's page MACs are HMAC-SHA512 (via SQLCipher/OpenSSL); the
//! secure page codec uses [`crate::hmac512`] built on this, truncated to
//! its 32-byte trailer slot (HMAC truncation per RFC 2104 §5).
//!
//! One stream runs the portable compression function in this file. A batch
//! of equal-length messages can also run eight streams per pass in
//! `avx512` on x86-64 CPUs with AVX-512F and AVX-512BW
//! (`Sha512::finalize_lanes`); `Backend::detect` is the only way to choose
//! it, and [`crate::hmac512::HmacSha512::new`] asks once per key.

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx512;
#[cfg(target_arch = "x86_64")]
pub(crate) use avx512::Detected as Avx512;

/// Streams one multi-buffer pass hashes at once.
#[cfg(target_arch = "x86_64")]
pub(crate) const LANES: usize = 8;

/// Which code hashes a batch of equal-length messages.
#[derive(Clone, Copy)]
pub(crate) enum Backend {
    /// One message after another.
    Scalar,
    /// [`LANES`] messages per pass, one per AVX-512 lane.
    #[cfg(target_arch = "x86_64")]
    Avx512(avx512::Detected),
}

impl Backend {
    /// The fastest batch back-end this CPU supports.
    pub(crate) fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if let Some(simd) = avx512::Detected::get() {
            return Backend::Avx512(simd);
        }
        Backend::Scalar
    }
}

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 64;
/// Internal block size in bytes.
pub const BLOCK_LEN: usize = 128;

const K: [u64; 80] = [
    0x428a2f98d728ae22, 0x7137449123ef65cd, 0xb5c0fbcfec4d3b2f, 0xe9b5dba58189dbbc,
    0x3956c25bf348b538, 0x59f111f1b605d019, 0x923f82a4af194f9b, 0xab1c5ed5da6d8118,
    0xd807aa98a3030242, 0x12835b0145706fbe, 0x243185be4ee4b28c, 0x550c7dc3d5ffb4e2,
    0x72be5d74f27b896f, 0x80deb1fe3b1696b1, 0x9bdc06a725c71235, 0xc19bf174cf692694,
    0xe49b69c19ef14ad2, 0xefbe4786384f25e3, 0x0fc19dc68b8cd5b5, 0x240ca1cc77ac9c65,
    0x2de92c6f592b0275, 0x4a7484aa6ea6e483, 0x5cb0a9dcbd41fbd4, 0x76f988da831153b5,
    0x983e5152ee66dfab, 0xa831c66d2db43210, 0xb00327c898fb213f, 0xbf597fc7beef0ee4,
    0xc6e00bf33da88fc2, 0xd5a79147930aa725, 0x06ca6351e003826f, 0x142929670a0e6e70,
    0x27b70a8546d22ffc, 0x2e1b21385c26c926, 0x4d2c6dfc5ac42aed, 0x53380d139d95b3df,
    0x650a73548baf63de, 0x766a0abb3c77b2a8, 0x81c2c92e47edaee6, 0x92722c851482353b,
    0xa2bfe8a14cf10364, 0xa81a664bbc423001, 0xc24b8b70d0f89791, 0xc76c51a30654be30,
    0xd192e819d6ef5218, 0xd69906245565a910, 0xf40e35855771202a, 0x106aa07032bbd1b8,
    0x19a4c116b8d2d0c8, 0x1e376c085141ab53, 0x2748774cdf8eeb99, 0x34b0bcb5e19b48a8,
    0x391c0cb3c5c95a63, 0x4ed8aa4ae3418acb, 0x5b9cca4f7763e373, 0x682e6ff3d6b2b8a3,
    0x748f82ee5defb2fc, 0x78a5636f43172f60, 0x84c87814a1f0ab72, 0x8cc702081a6439ec,
    0x90befffa23631e28, 0xa4506cebde82bde9, 0xbef9a3f7b2c67915, 0xc67178f2e372532b,
    0xca273eceea26619c, 0xd186b8c721c0c207, 0xeada7dd6cde0eb1e, 0xf57d4f7fee6ed178,
    0x06f067aa72176fba, 0x0a637dc5a2c898a6, 0x113f9804bef90dae, 0x1b710b35131c471b,
    0x28db77f523047d84, 0x32caab7b40c72493, 0x3c9ebe0a15c9bebc, 0x431d67c49c100d4c,
    0x4cc5d4becb3e42b6, 0x597f299cfc657e2a, 0x5fcb6fab3ad6faec, 0x6c44198c4a475817,
];

const H0: [u64; 8] = [
    0x6a09e667f3bcc908, 0xbb67ae8584caa73b, 0x3c6ef372fe94f82b, 0xa54ff53a5f1d36f1,
    0x510e527fade682d1, 0x9b05688c2b3e6c1f, 0x1f83d9abfb41bd6b, 0x5be0cd19137e2179,
];

/// Streaming SHA-512 hasher.
#[derive(Clone)]
pub struct Sha512 {
    state: [u64; 8],
    len: u128,
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
}

impl Default for Sha512 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha512 {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Sha512 { state: H0, len: 0, buf: [0; BLOCK_LEN], buf_len: 0 }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u128);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < BLOCK_LEN {
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        // Whole blocks are hashed where they lie; only the tail is copied.
        let (blocks, tail) = rest.as_chunks::<BLOCK_LEN>();
        for block in blocks {
            compress(&mut self.state, block);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Consume the hasher, producing the 64-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.len.wrapping_mul(8);
        // Padding in one shot: 0x80, zeros to the length field (spilling
        // into one more block when fewer than 16 bytes remain), bit length.
        let used = self.buf_len;
        self.buf[used] = 0x80;
        self.buf[used + 1..].fill(0);
        if used + 1 > BLOCK_LEN - 16 {
            compress(&mut self.state, &self.buf);
            self.buf.fill(0);
        }
        self.buf[BLOCK_LEN - 16..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);
        let mut out = [0u8; DIGEST_LEN];
        for (bytes, w) in out.chunks_exact_mut(8).zip(self.state) {
            bytes.copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// True when no partial block is buffered, so every later byte starts
    /// a stream that [`Sha512::finalize_lanes`] can continue.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn on_block_boundary(&self) -> bool {
        self.buf_len == 0
    }

    /// Finish [`LANES`] streams that continue this hasher: lane `l` absorbs
    /// `lanes[l][0] ‖ lanes[l][1]` and yields the digest `clone()`, two
    /// `update`s and `finalize` would. Every lane's message has the same
    /// length, and the hasher is [on a block
    /// boundary](Sha512::on_block_boundary). Blocks that lie whole inside
    /// one part are hashed where they lie; only a block that straddles the
    /// two parts or holds the padding is staged.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn finalize_lanes(
        &self,
        simd: avx512::Detected,
        lanes: &[[&[u8]; 2]; LANES],
    ) -> [[u8; DIGEST_LEN]; LANES] {
        let len = lanes[0][0].len() + lanes[0][1].len();
        debug_assert!(self.on_block_boundary());
        debug_assert!(lanes.iter().all(|[head, body]| head.len() + body.len() == len));
        let bit_len = self.len.wrapping_add(len as u128).wrapping_mul(8);
        let blocks = (len + 1 + 16).div_ceil(BLOCK_LEN);
        let mut state = self.state.map(|w| [w; LANES]);
        let mut staged = [[0u8; BLOCK_LEN]; LANES];
        for k in 0..blocks {
            for ([head, body], out) in lanes.iter().zip(&mut staged) {
                if block_in_place(head, body, k).is_none() {
                    stage_block(head, body, k, (k + 1 == blocks).then_some(bit_len), out);
                }
            }
            let refs = std::array::from_fn(|l| {
                let [head, body] = lanes[l];
                block_in_place(head, body, k).unwrap_or(&staged[l])
            });
            simd.compress(&mut state, refs);
        }
        std::array::from_fn(|l| {
            let mut out = [0u8; DIGEST_LEN];
            for (bytes, w) in out.chunks_exact_mut(8).zip(&state) {
                bytes.copy_from_slice(&w[l].to_be_bytes());
            }
            out
        })
    }
}

/// Block `k` of `head ‖ body` where it lies, if it lies whole in one part.
#[cfg(target_arch = "x86_64")]
fn block_in_place<'a>(head: &'a [u8], body: &'a [u8], k: usize) -> Option<&'a [u8; BLOCK_LEN]> {
    let start = k * BLOCK_LEN;
    let part = match start.checked_sub(head.len()) {
        Some(from) => body.get(from..)?,
        None => &head[start..],
    };
    part.first_chunk()
}

/// Copy block `k` of `head ‖ body` into `out`, padded: the bytes the
/// message has there, `0x80` where it ends, zeros, and — in the `last`
/// block — the message's total bit length.
#[cfg(target_arch = "x86_64")]
fn stage_block(head: &[u8], body: &[u8], k: usize, last: Option<u128>, out: &mut [u8; BLOCK_LEN]) {
    let start = k * BLOCK_LEN;
    out.fill(0);
    let from_head = head.get(start..).unwrap_or_default();
    let n = from_head.len().min(BLOCK_LEN);
    out[..n].copy_from_slice(&from_head[..n]);
    let from_body = body.get((start + n).saturating_sub(head.len())..).unwrap_or_default();
    let m = from_body.len().min(BLOCK_LEN - n);
    out[n..n + m].copy_from_slice(&from_body[..m]);
    if n + m < BLOCK_LEN && start + n + m == head.len() + body.len() {
        out[n + m] = 0x80;
    }
    if let Some(bit_len) = last {
        out[BLOCK_LEN - 16..].copy_from_slice(&bit_len.to_be_bytes());
    }
}

/// The FIPS 180-4 §6.4.2 compression function.
fn compress(state: &mut [u64; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u64; 80];
    for (wi, bytes) in w.iter_mut().zip(block.chunks_exact(8)) {
        *wi = u64::from_be_bytes(bytes.try_into().expect("8-byte word"));
    }
    for i in 16..80 {
        let s0 = w[i - 15].rotate_right(1) ^ w[i - 15].rotate_right(8) ^ (w[i - 15] >> 7);
        let s1 = w[i - 2].rotate_right(19) ^ w[i - 2].rotate_right(61) ^ (w[i - 2] >> 6);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..80 {
        let s1 = e.rotate_right(14) ^ e.rotate_right(18) ^ e.rotate_right(41);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(28) ^ a.rotate_right(34) ^ a.rotate_right(39);
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

/// One-shot SHA-512.
pub fn sha512(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha512::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn empty_vector() {
        assert_eq!(
            hex(&sha512(b"")),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce\
             47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"
                .replace(char::is_whitespace, "")
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hex(&sha512(b"abc")),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a\
             2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
                .replace(char::is_whitespace, "")
        );
    }

    #[test]
    fn two_block_vector() {
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                    hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        // The FIPS vector message has no internal whitespace.
        let msg: Vec<u8> = msg.iter().copied().filter(|b| !b.is_ascii_whitespace()).collect();
        assert_eq!(
            hex(&sha512(&msg)),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018\
             501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909"
                .replace(char::is_whitespace, "")
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1337u32).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 111, 127, 128, 129, 1000, 1337] {
            let mut h = Sha512::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha512(&data), "split at {split}");
        }
    }

    /// Known answers (hashlib) at every length where the one-shot padding
    /// changes shape: the last length whose padding fits the block (111),
    /// the first that spills (112), and a full block either side.
    #[test]
    fn boundary_length_digests() {
        let expected = [
            (111, "3dfde1184fd99f233f98be4250f4edb9b535157909b668334370742204d97e04\
                   7f1fd6a74bb5ba447f337286f421d9af957811f7ef62a458771457da126cb65e"),
            (112, "acc96c509e6d01787330a4c6a241e2cda9dcc2529dbe4288dbbcc3812133233c\
                   4698831127cf6ed0b333632b22715a5ce53a0a1002a684367b71c98aa6d1d900"),
            (113, "4ede4e315b6ca9754af594de49c76f096a1ff4f52a1f26644c25fb45bce727e4\
                   28ed971dbdde70738ba0b45eb58c2bc637083626b692e24c0a2396c2b354659c"),
            (127, "a315910cb7812a8e66d87c0c49a42d93dbe97bf0240ee995792292c529256d93\
                   f40199a59b3f6266343f302651fea1589e2040a2f3756126d3fe4f421a72079d"),
            (128, "31f33a52b36dc2e70c83b604fa999a5cabf33bf70e4556fbed7bff10870c1b7b\
                   241dd3f15d1ade24599f068fc58ab51e0028b0f0c98895c23358e8dee032ce06"),
            (129, "748fec3280c9165199f8c260e87eea61cbbe1b23ef1567c220df65b37e3fcced\
                   15fa7f63c9a381fde38ddd4eb2b09b67f77d03c5e0a639b487e8c48343590c97"),
        ];
        for (len, digest) in expected {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + 1) as u8).collect();
            assert_eq!(hex(&sha512(&data)), digest, "len {len}");
        }
    }

    #[test]
    fn padding_boundaries() {
        for len in 105..135 {
            let data = vec![0x5au8; len];
            let d = sha512(&data);
            let mut h = Sha512::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d, "len {len}");
        }
    }
}
