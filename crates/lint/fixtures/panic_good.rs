//! Good: the same entry shape, but every fallible step threads a
//! `Result` instead of panicking — and an *unreachable* helper may
//! still unwrap (nothing on the entry's call graph touches it).

pub(crate) fn serve_worker_fixture(job: Option<u8>) -> Result<u8, String> {
    dispatch(job)
}

fn dispatch(job: Option<u8>) -> Result<u8, String> {
    decode(job)
}

fn decode(job: Option<u8>) -> Result<u8, String> {
    match job {
        Some(v) => Ok(v),
        None => Err("empty job".to_string()),
    }
}

/// Never called from any entry point: out of reachability scope.
fn debug_only(job: Option<u8>) -> u8 {
    job.unwrap()
}
