//! SHA-1 (FIPS 180-1) implemented from the specification.
//!
//! Kosha derives directory keys with "a SHA-1 hash of the directory name"
//! (Section 3.1). No digest crate is available in the offline dependency
//! set, so this module implements the algorithm directly; it is validated
//! against the FIPS / RFC 3174 test vectors in the unit tests below.
//!
//! SHA-1 is used here purely as a uniform hash for load balancing — exactly
//! the paper's use — not for any security property.

/// Incremental SHA-1 hasher.
///
/// ```
/// use kosha_id::Sha1;
/// let digest = Sha1::digest(b"abc");
/// assert_eq!(Sha1::hex(&digest), "a9993e364706816aba3e25717850c26c9cd0d89d");
/// ```
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    /// Total message length in bytes.
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a hasher in the standard initial state.
    #[must_use]
    pub fn new() -> Self {
        Sha1 {
            state: [
                0x6745_2301,
                0xEFCD_AB89,
                0x98BA_DCFE,
                0x1032_5476,
                0xC3D2_E1F0,
            ],
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return; // `data` fitted in the buffer
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let (blocks, rest) = data.as_chunks::<64>();
        for block in blocks {
            compress(&mut self.state, block);
        }
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Finishes the hash and returns the 20-byte digest.
    #[must_use]
    pub fn finalize(mut self) -> [u8; 20] {
        // Padding, written in place: 0x80, zeros up to 56 mod 64, then the
        // 64-bit big-endian bit length. A tail of 56 bytes or more leaves
        // no room for the length, which then takes a block of its own.
        let tail = self.buf_len;
        self.buf[tail] = 0x80;
        self.buf[tail + 1..].fill(0);
        if tail >= 56 {
            compress(&mut self.state, &self.buf);
            self.buf = [0; 64];
        }
        self.buf[56..].copy_from_slice(&self.len.wrapping_mul(8).to_be_bytes());
        compress(&mut self.state, &self.buf);
        let mut out = [0u8; 20];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot convenience: `Sha1::digest(msg)`.
    #[must_use]
    pub fn digest(data: &[u8]) -> [u8; 20] {
        let mut h = Sha1::new();
        h.update(data);
        h.finalize()
    }

    /// Lowercase hex rendering of a digest.
    #[must_use]
    pub fn hex(digest: &[u8; 20]) -> String {
        let mut s = String::with_capacity(40);
        Self::push_hex(&mut s, digest);
        s
    }

    /// Appends the lowercase hex rendering of `bytes` (a digest or a
    /// prefix of one) to `out`: two table look-ups a byte, no formatter.
    pub fn push_hex(out: &mut String, bytes: &[u8]) {
        const NIBBLE: &[u8; 16] = b"0123456789abcdef";
        for &b in bytes {
            out.push(char::from(NIBBLE[usize::from(b >> 4)]));
            out.push(char::from(NIBBLE[usize::from(b & 0x0f)]));
        }
    }
}

/// Word `t` of the message schedule. The first sixteen are the block's;
/// each later one is derived from the four at `t - 3`, `t - 8`, `t - 14`
/// and `t - 16` and overwrites the last of them, so sixteen words of
/// state serve all eighty rounds.
#[inline(always)]
fn schedule(w: &mut [u32; 16], t: usize) -> u32 {
    if t >= 16 {
        w[t & 15] =
            (w[(t + 13) & 15] ^ w[(t + 8) & 15] ^ w[(t + 2) & 15] ^ w[t & 15]).rotate_left(1);
    }
    w[t & 15]
}

/// One round: `f` is the round function of `b, c, d`, `k` its constant.
#[inline(always)]
fn round(s: &mut [u32; 5], f: u32, k: u32, wt: u32) {
    let [a, b, c, d, e] = *s;
    let t = a
        .rotate_left(5)
        .wrapping_add(f)
        .wrapping_add(e)
        .wrapping_add(k)
        .wrapping_add(wt);
    *s = [t, a, b.rotate_left(30), c, d];
}

/// Folds one 64-byte block into `state`: one loop per round function,
/// so no round decides which function it runs.
fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
        *word = u32::from_be_bytes(*bytes);
    }
    let mut s = *state;
    for t in 0..20 {
        let [_, b, c, d, _] = s;
        // Ch: `c` where `b` is set, else `d`.
        round(&mut s, d ^ (b & (c ^ d)), 0x5A82_7999, schedule(&mut w, t));
    }
    for t in 20..40 {
        let [_, b, c, d, _] = s;
        round(&mut s, b ^ c ^ d, 0x6ED9_EBA1, schedule(&mut w, t));
    }
    for t in 40..60 {
        let [_, b, c, d, _] = s;
        // Maj: the majority bit of `b, c, d`.
        round(
            &mut s,
            (b & c) | (d & (b | c)),
            0x8F1B_BCDC,
            schedule(&mut w, t),
        );
    }
    for t in 60..80 {
        let [_, b, c, d, _] = s;
        round(&mut s, b ^ c ^ d, 0xCA62_C1D6, schedule(&mut w, t));
    }
    for (word, add) in state.iter_mut().zip(s) {
        *word = word.wrapping_add(add);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // FIPS 180-1 / RFC 3174 test vectors.
    #[test]
    fn vector_abc() {
        assert_eq!(
            Sha1::hex(&Sha1::digest(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn push_hex_agrees_with_the_formatter_on_every_byte() {
        let all: Vec<u8> = (0..=255).collect();
        let mut got = String::new();
        Sha1::push_hex(&mut got, &all);
        let want: String = all.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn vector_two_blocks() {
        assert_eq!(
            Sha1::hex(&Sha1::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn vector_empty() {
        assert_eq!(
            Sha1::hex(&Sha1::digest(b"")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
    }

    #[test]
    fn vector_million_a() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            Sha1::hex(&h.finalize()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    /// Lengths either side of the padding's boundaries: 55 is the longest
    /// tail that leaves room for the length in its own block, 56 to 63
    /// push the length into a block of its own, and 64, 119 and 120 repeat
    /// that one block later. Digests from Python's `hashlib.sha1`.
    #[test]
    fn vector_padding_boundaries() {
        let vectors = [
            (55, "ddf57317ef34bfee3b6df83d359098930eb278bc"),
            (56, "a0d492bb0fc889d0eca3bc137066ab6f4f74f369"),
            (57, "11a02dcf95859677a62e75024067c22b165d890f"),
            (63, "c55856749bef509bdfe6bfebfc7bf4e793e82132"),
            (64, "bede92be29c3874e1b54ddc77988d606fc857a8e"),
            (65, "b05a80522b053d6dc7e0a517d0e70212c7dad11f"),
            (119, "504e27376a6e0f0dba8295b85cb25dc4dfa17d23"),
            (120, "82134b02fb3f702491be9bed581eeab59334acb2"),
        ];
        for (len, want) in vectors {
            // `bytes((i * 7 + 3) % 256 for i in range(len))`
            let msg: Vec<u8> = (0..len).map(|i: usize| (i * 7 + 3) as u8).collect();
            assert_eq!(Sha1::hex(&Sha1::digest(&msg)), want, "{len} bytes one-shot");
            let mut h = Sha1::new();
            for b in &msg {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(
                Sha1::hex(&h.finalize()),
                want,
                "{len} bytes a byte at a time"
            );
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let msg = b"The quick brown fox jumps over the lazy dog";
        let mut h = Sha1::new();
        for b in msg.iter() {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), Sha1::digest(msg));
        assert_eq!(
            Sha1::hex(&Sha1::digest(msg)),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"
        );
    }

    #[test]
    fn incremental_odd_chunking() {
        // Exercise buffer boundaries: 63, 64, 65, 127, 128, 129-byte splits.
        let msg: Vec<u8> = (0..300u32).map(|i| (i % 251) as u8).collect();
        let expect = Sha1::digest(&msg);
        for split in [1usize, 63, 64, 65, 127, 128, 129, 255] {
            let mut h = Sha1::new();
            for chunk in msg.chunks(split) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), expect, "split {split}");
        }
    }
}
