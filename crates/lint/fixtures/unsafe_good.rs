// Fixture: both the documented-unsafe shapes the rule accepts.
pub(crate) fn read_raw(p: *const u8) -> u8 {
    // SAFETY: caller guarantees `p` is valid for reads.
    unsafe { *p }
}

/// Reads one byte.
///
/// # Safety
/// `p` must be valid for reads.
pub(crate) unsafe fn read_raw_unchecked(p: *const u8) -> u8 {
    // SAFETY: forwarded verbatim from this fn's own contract.
    unsafe { *p }
}

pub(crate) fn decoy() -> &'static str {
    // The word unsafe in comments and strings must not count.
    "unsafe { totally_fine() }"
}
