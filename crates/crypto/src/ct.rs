//! Constant-time byte comparison, and the word masks the fixed-width
//! Montgomery code (the private `mont` module) selects with instead of branching.

/// All ones if `bit` is 1, all zeros if it is 0. The value passes through
/// `black_box` so the optimiser cannot turn a masked select back into a
/// branch on it.
#[inline]
pub(crate) fn mask(bit: u64) -> u64 {
    debug_assert!(bit <= 1);
    std::hint::black_box(bit).wrapping_neg()
}

/// All ones iff `a == b`.
#[inline]
pub(crate) fn mask_eq(a: u64, b: u64) -> u64 {
    let x = a ^ b;
    mask(((x | x.wrapping_neg()) >> 63) ^ 1)
}

/// `a` where `m` is all ones, `b` where it is all zeros, limb by limb.
#[inline]
pub(crate) fn select<const N: usize>(m: u64, a: &[u64; N], b: &[u64; N]) -> [u64; N] {
    std::array::from_fn(|i| (a[i] & m) | (b[i] & !m))
}

/// Compare two byte slices without early exit.
///
/// Returns `true` iff the slices have equal length and equal contents.
/// The comparison time depends only on the slice lengths, never on the
/// position of the first mismatch — required when comparing MACs so an
/// attacker probing the secure storage cannot binary-search a valid tag.
#[inline]
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::ct_eq;

    #[test]
    fn equal_slices() {
        assert!(ct_eq(b"", b""));
        assert!(ct_eq(b"abc", b"abc"));
        assert!(ct_eq(&[0u8; 32], &[0u8; 32]));
    }

    #[test]
    fn unequal_contents() {
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"xbc", b"abc"));
    }

    #[test]
    fn word_masks() {
        use super::{mask, mask_eq, select};
        assert_eq!((mask(0), mask(1)), (0, u64::MAX));
        for (a, b) in [(0u64, 0u64), (0, 1), (u64::MAX, u64::MAX), (1 << 63, 0), (5, 5), (u64::MAX, 0)] {
            assert_eq!(mask_eq(a, b), if a == b { u64::MAX } else { 0 }, "{a} vs {b}");
        }
        assert_eq!(select(u64::MAX, &[1, 2], &[3, 4]), [1, 2]);
        assert_eq!(select(0, &[1, 2], &[3, 4]), [3, 4]);
    }

    #[test]
    fn unequal_lengths() {
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(!ct_eq(b"", b"a"));
    }
}
