//! Message word-size accounting.

/// A message payload with a declared size in O(log n)-bit words.
///
/// Conventions (documented in DESIGN.md §3): vertex ids, part ids, hop
/// counts and distances each cost one word — the standard CONGEST
/// normalization under polynomially-bounded weights. Structured messages
/// sum their fields. A message may be many words long; the engine charges
/// the extra rounds automatically (pipelining).
pub trait WireMsg: Clone {
    /// Size of this message in words (≥ 1: the engine rejects a zero-word
    /// message with [`crate::CongestError::ZeroWordMessage`]).
    fn words(&self) -> u64 {
        1
    }
}

/// The empty payload: a bare one-word "ping" (presence is the signal).
impl WireMsg for () {}
impl WireMsg for u8 {}
impl WireMsg for u16 {}
impl WireMsg for u32 {}
impl WireMsg for u64 {}
impl WireMsg for i64 {}
impl WireMsg for bool {}
impl WireMsg for (u32, u32) {
    fn words(&self) -> u64 {
        2
    }
}
impl WireMsg for (u32, u64) {
    fn words(&self) -> u64 {
        2
    }
}
impl WireMsg for (u32, u32, u64) {
    fn words(&self) -> u64 {
        3
    }
}
impl WireMsg for (u64, u32) {
    fn words(&self) -> u64 {
        2
    }
}
impl WireMsg for (u64, u64) {
    fn words(&self) -> u64 {
        2
    }
}
impl WireMsg for (u32, u32, u32) {
    fn words(&self) -> u64 {
        3
    }
}
impl WireMsg for (u32, u64, u64) {
    fn words(&self) -> u64 {
        3
    }
}

/// Variable-length payloads: a `Vec` of fixed-size items costs the sum (and
/// at least one word, so empty keep-alive messages are still charged).
impl<T: WireMsg> WireMsg for Vec<T> {
    fn words(&self) -> u64 {
        self.iter().map(WireMsg::words).sum::<u64>().max(1)
    }
}

impl<T: WireMsg> WireMsg for Option<T> {
    fn words(&self) -> u64 {
        match self {
            Some(t) => t.words(),
            None => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes() {
        assert_eq!(5u32.words(), 1);
        assert_eq!((1u32, 2u32).words(), 2);
        assert_eq!((1u32, 2u32, 3u64).words(), 3);
    }

    #[test]
    fn vec_sums_and_floors_at_one() {
        assert_eq!(vec![1u32, 2, 3].words(), 3);
        assert_eq!(Vec::<u32>::new().words(), 1);
        assert_eq!(vec![(1u32, 2u64), (3, 4)].words(), 4);
    }

    #[test]
    fn option_sizes() {
        assert_eq!(Some(7u64).words(), 1);
        assert_eq!(None::<u64>.words(), 1);
    }
}
