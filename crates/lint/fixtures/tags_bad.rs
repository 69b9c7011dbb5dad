// Fixture: a colliding tag value — the regression a "just add a
// message" PR can make.
pub const TAG_JOB: u8 = 1;
pub const TAG_RESULT: u8 = 2;
pub const TAG_CLASH: u8 = 2;
