// Fixture: bit-exact float handling — compare and ship as bits.
pub(crate) fn merge_equal(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

pub(crate) fn render(x: f64) -> String {
    format!("{:#018x}", x.to_bits())
}
