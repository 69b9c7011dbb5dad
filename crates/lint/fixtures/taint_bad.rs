//! Bad: a wall-clock value (from a helper that calls
//! `Instant::now`) flows through a local into `wire::encode_header`.
//! Replays of the same job would produce different bytes.

pub(crate) fn snapshot(buf: &mut Vec<u8>) {
    let stamp = wall_stamp();
    wire::encode_header(buf, stamp);
}

fn wall_stamp() -> u64 {
    let t = std::time::Instant::now();
    t.elapsed().as_nanos() as u64
}
