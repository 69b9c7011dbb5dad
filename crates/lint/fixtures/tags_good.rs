// Fixture: unique tags.
pub(crate) const TAG_JOB: u8 = 1;
pub(crate) const TAG_RESULT: u8 = 2;
pub(crate) const TAG_CONFIGURE: u8 = 3;
