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
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while data.len() >= 64 {
            let mut block = [0u8; 64];
            block.copy_from_slice(&data[..64]);
            self.compress(&block);
            data = &data[64..];
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finishes the hash and returns the 20-byte digest.
    #[must_use]
    pub fn finalize(mut self) -> [u8; 20] {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, zeros, 64-bit big-endian bit length.
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        // Manual append of the length: do not go through update() again for
        // the final 8 bytes, since update() would keep growing self.len.
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);
        let mut out = [0u8; 20];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
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

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for t in 16..80 {
            w[t] = (w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16]).rotate_left(1);
        }
        let [mut a, mut b, mut c, mut d, mut e] = self.state;
        for (t, &wt) in w.iter().enumerate() {
            let (f, k) = match t {
                0..=19 => ((b & c) | ((!b) & d), 0x5A82_7999),
                20..=39 => (b ^ c ^ d, 0x6ED9_EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1B_BCDC),
                _ => (b ^ c ^ d, 0xCA62_C1D6),
            };
            let tmp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wt);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
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
