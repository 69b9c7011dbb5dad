// Fixture: an `unsafe` block with no SAFETY comment anywhere near it.
pub(crate) fn read_raw(p: *const u8) -> u8 {
    unsafe { *p }
}
