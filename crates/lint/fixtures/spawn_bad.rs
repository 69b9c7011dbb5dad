// Fixture: a bare thread::spawn outside the scheduler/backend layer.
use std::thread;

pub(crate) fn fire_and_forget() {
    thread::spawn(|| {});
}
