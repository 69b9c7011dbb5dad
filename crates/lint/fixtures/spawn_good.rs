// Fixture: the same spawn is fine once it lives under backend/ — and
// process spawns are never thread spawns.
use std::thread;

pub(crate) fn worker_thread() {
    thread::spawn(|| {});
}

pub(crate) fn launch_daemon() {
    let _ = std::process::Command::new("oisa-worker").spawn();
}
