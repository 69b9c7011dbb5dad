// Fixture: a colliding tag value — the regression a "just add a
// message" PR can make.
pub(crate) const TAG_JOB: u8 = 1;
pub(crate) const TAG_RESULT: u8 = 2;
pub(crate) const TAG_CLASH: u8 = 2;
