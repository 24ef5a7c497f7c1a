//! Named, total numeric conversions for the workspace.
//!
//! Clippy's cast lints (enabled at the hot-path crate roots) refuse raw
//! numeric `as` casts that can truncate, wrap, or round. Call sites use
//! these helpers (or `From`/`try_from`) instead, so every conversion's
//! contract is named at the call site and the handful of underlying lossy
//! `as` casts are waived once, here, with their proofs.
//!
//! All helpers compile to the same machine code as the raw cast they wrap:
//! they exist to document intent, not to change semantics. The
//! float-bound helpers use Rust's saturating `as` semantics (out-of-range
//! saturates, NaN becomes zero), which is already deterministic.
//!
//! Supported targets are 64-bit (`usize` == `u64` in width); the
//! `usize`/`u64` round trips rely on that and say so.

/// `usize` → `u64`, exact on the supported 64-bit targets.
#[inline]
#[must_use]
pub fn usize_to_u64(n: usize) -> u64 {
    n as u64
}

/// `u64` → `usize`, exact on the supported 64-bit targets (saturates on a
/// hypothetical 32-bit port rather than wrapping).
#[inline]
#[must_use]
pub fn u64_to_usize(n: u64) -> usize {
    usize::try_from(n).unwrap_or(usize::MAX)
}

/// `usize` → `u32` saturating: rank indices and cluster sizes stay far
/// below `u32::MAX`, so the saturation path is dead code in practice.
#[inline]
#[must_use]
pub fn usize_to_u32(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// `u32` → `usize`, always exact (no `From` impl exists because `usize`
/// may be 16-bit on exotic targets; ours are 64-bit).
#[inline]
#[must_use]
pub fn u32_to_usize(n: u32) -> usize {
    n as usize
}

/// `usize` → `f64`, exact for values up to 2^53 (namespace sizes, op
/// counts and tick counts all sit far below that).
#[inline]
#[must_use]
#[expect(
    clippy::cast_precision_loss,
    reason = "exact below 2^53; counts never reach that"
)]
pub fn usize_to_f64(n: usize) -> f64 {
    n as f64
}

/// `u64` → `f64`, exact for values up to 2^53 (see [`usize_to_f64`]).
#[inline]
#[must_use]
#[expect(
    clippy::cast_precision_loss,
    reason = "exact below 2^53; counts never reach that"
)]
pub fn u64_to_f64(n: u64) -> f64 {
    n as f64
}

/// `f64` → `u64` with Rust's saturating cast semantics: truncates toward
/// zero, negative and NaN become 0, overflow saturates to `u64::MAX`.
#[inline]
#[must_use]
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "the saturating float-to-int cast is the intent here"
)]
pub fn f64_to_u64(x: f64) -> u64 {
    x as u64
}

/// `f64` → `usize` with Rust's saturating cast semantics (see
/// [`f64_to_u64`]).
#[inline]
#[must_use]
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "the saturating float-to-int cast is the intent here"
)]
pub fn f64_to_usize(x: f64) -> usize {
    x as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widenings_are_exact() {
        assert_eq!(usize_to_u64(usize::MAX), u64::MAX);
        assert_eq!(u64_to_usize(u64::MAX), usize::MAX);
        assert_eq!(u32_to_usize(u32::MAX), 4_294_967_295);
        assert_eq!(usize_to_u32(7), 7);
        assert_eq!(usize_to_f64(1 << 53), 9_007_199_254_740_992.0);
        assert_eq!(u64_to_f64(42), 42.0);
    }

    #[test]
    fn float_to_int_saturates() {
        assert_eq!(f64_to_u64(3.9), 3);
        assert_eq!(f64_to_u64(-1.0), 0);
        assert_eq!(f64_to_u64(f64::NAN), 0);
        assert_eq!(f64_to_u64(1e300), u64::MAX);
        assert_eq!(f64_to_usize(2.5), 2);
    }
}
