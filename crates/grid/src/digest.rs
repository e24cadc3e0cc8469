//! Content digests of `f32` volumes.
//!
//! [`WordHasher`] is a 64-bit multi-lane multiply/rotate hash over the bit
//! patterns of `f32` words. Four independent 64-bit lanes each absorb one
//! pair of words per round, so a volume streams through at a few
//! instructions per word instead of one hasher call per element. It exists
//! to fingerprint the coefficient volumes a cache session key depends on
//! (DESIGN.md §14): computed once, while the volumes are built, then reused
//! by every run. It is not a defence against crafted collisions.
//!
//! The digest depends only on the words written and their order, never on
//! how they were split across [`WordHasher::write_f32s`] calls.

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;

const LANES: usize = 4;
/// Words absorbed per round: two per lane.
const BLOCK: usize = 2 * LANES;

#[inline(always)]
fn mix(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// A streaming multi-lane word hash (see the module docs).
#[derive(Debug, Clone)]
pub struct WordHasher {
    lanes: [u64; LANES],
    /// Words of an unfinished round, carried to the next write.
    tail: [u32; BLOCK],
    tail_len: usize,
    words: u64,
}

impl WordHasher {
    /// A hasher whose lanes start from `seed`.
    pub fn new(seed: u64) -> Self {
        WordHasher {
            lanes: [
                seed.wrapping_add(P1).wrapping_add(P2),
                seed.wrapping_add(P2),
                seed,
                seed.wrapping_sub(P1),
            ],
            tail: [0; BLOCK],
            tail_len: 0,
            words: 0,
        }
    }

    #[inline(always)]
    fn round(&mut self, block: &[u32; BLOCK]) {
        for (l, lane) in self.lanes.iter_mut().enumerate() {
            let w = u64::from(block[2 * l]) | (u64::from(block[2 * l + 1]) << 32);
            *lane = mix(*lane, w);
        }
    }

    /// Absorb the bit patterns of `words`, in order.
    pub fn write_f32s(&mut self, words: &[f32]) {
        self.words += words.len() as u64;
        let mut rest = words;
        if self.tail_len > 0 {
            let take = (BLOCK - self.tail_len).min(rest.len());
            for (t, w) in self.tail[self.tail_len..].iter_mut().zip(&rest[..take]) {
                *t = w.to_bits();
            }
            self.tail_len += take;
            rest = &rest[take..];
            if self.tail_len < BLOCK {
                return;
            }
            let block = self.tail;
            self.round(&block);
            self.tail_len = 0;
        }
        let mut chunks = rest.chunks_exact(BLOCK);
        for c in &mut chunks {
            let block: [u32; BLOCK] = std::array::from_fn(|i| c[i].to_bits());
            self.round(&block);
        }
        for (t, w) in self.tail.iter_mut().zip(chunks.remainder()) {
            *t = w.to_bits();
        }
        self.tail_len = chunks.remainder().len();
    }

    /// Absorb a 64-bit value as two words (low half first) — used to
    /// combine the digests of several volumes.
    pub fn write_u64(&mut self, v: u64) {
        self.write_f32s(&[f32::from_bits(v as u32), f32::from_bits((v >> 32) as u32)]);
    }

    /// The 64-bit digest of everything written so far.
    pub fn finish(&self) -> u64 {
        let [a, b, c, d] = self.lanes;
        let mut h = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        for lane in self.lanes {
            h = (h ^ mix(0, lane)).wrapping_mul(P1).wrapping_add(P4);
        }
        h = h.wrapping_add(self.words.wrapping_mul(4));
        for &w in &self.tail[..self.tail_len] {
            h ^= u64::from(w).wrapping_mul(P1);
            h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.37).sin()).collect()
    }

    fn digest(words: &[f32]) -> u64 {
        let mut h = WordHasher::new(0);
        h.write_f32s(words);
        h.finish()
    }

    #[test]
    fn split_writes_give_the_same_digest() {
        let w = words(1000);
        let whole = digest(&w);
        for split in [1usize, 3, 7, 8, 9, 500, 999] {
            let mut h = WordHasher::new(0);
            for part in w.chunks(split) {
                h.write_f32s(part);
            }
            assert_eq!(h.finish(), whole, "split {split}");
        }
    }

    #[test]
    fn every_word_position_and_bit_matters() {
        let w = words(37);
        let base = digest(&w);
        for i in 0..w.len() {
            let mut v = w.clone();
            v[i] = f32::from_bits(v[i].to_bits() ^ 1);
            assert_ne!(digest(&v), base, "flipped low bit of word {i}");
        }
        // Sign of zero is content, too.
        assert_ne!(digest(&[0.0]), digest(&[-0.0]));
        // Length is content: a trailing zero word changes the digest.
        let mut longer = w.clone();
        longer.push(0.0);
        assert_ne!(digest(&longer), base);
        // Swapping two words changes it.
        let mut s = w.clone();
        s.swap(0, 1);
        assert_ne!(digest(&s), base);
    }

    #[test]
    fn seed_separates_streams() {
        let w = words(64);
        let mut a = WordHasher::new(1);
        let mut b = WordHasher::new(2);
        a.write_f32s(&w);
        b.write_f32s(&w);
        assert_ne!(a.finish(), b.finish());
    }
}
