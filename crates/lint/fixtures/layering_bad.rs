//! Bad: a device-layer file imports the core crate. The crate DAG
//! points the other way (core depends on device); this import would
//! invert the layering.

use oisa_core::serving::ServingEngine;

pub(crate) fn peek(engine: &ServingEngine) -> usize {
    core::mem::size_of_val(engine)
}
