// Fixture: unique tags.
pub const TAG_JOB: u8 = 1;
pub const TAG_RESULT: u8 = 2;
pub const TAG_CONFIGURE: u8 = 3;
