//! Good: the wire header carries a caller-provided epoch counter —
//! a pure function of the job — and the wall clock is used only for
//! latency stats that never reach an encoder or a noise key.

pub(crate) fn snapshot(buf: &mut Vec<u8>, epoch: u64) {
    wire::encode_header(buf, epoch);
}

pub(crate) fn latency_probe() -> u64 {
    let t = std::time::Instant::now();
    t.elapsed().as_nanos() as u64
}
