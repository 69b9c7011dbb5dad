//! Bad: a serving entry point (`serve_worker_*` prefix) reaches an
//! `.unwrap()` through a helper. The panic is two call-graph edges
//! from the entry, so a per-file unwrap scan tied to the entry's body
//! would miss it — reachability must not.

pub(crate) fn serve_worker_fixture(job: Option<u8>) -> u8 {
    dispatch(job)
}

fn dispatch(job: Option<u8>) -> u8 {
    decode(job)
}

fn decode(job: Option<u8>) -> u8 {
    job.unwrap()
}
