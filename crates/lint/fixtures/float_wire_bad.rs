// Fixture: the two float leaks the wire path must never contain —
// a tolerance-free float comparison and decimal text formatting.
pub(crate) fn merge_equal(x: f64) -> bool {
    x == 1.5
}

pub(crate) fn render(x: f64) -> String {
    format!("{x:.6}")
}
