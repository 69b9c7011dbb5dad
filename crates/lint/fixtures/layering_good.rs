//! Good: a device-layer file importing only its declared
//! dependencies (`oisa_units`, `oisa_spice`) and the standard
//! library.

use oisa_spice::op_point;
use oisa_units::{Seconds, Volts};
use std::collections::BTreeMap;

pub(crate) fn sweep(bias: Volts, dt: Seconds) -> BTreeMap<u32, f64> {
    let _ = (bias, dt, op_point);
    BTreeMap::new()
}
