//! Minimal SIGINT/SIGTERM latching for graceful drain.
//!
//! `mq serve` calls [`install`] once, then polls
//! [`triggered`] from its supervision loop: the first signal flips a
//! process-global flag, the loop stops accepting, drains in-flight
//! batches, checkpoints file stores and exits 0. The handler itself only
//! stores an atomic — everything async-signal-unsafe happens on the
//! polling thread.

use std::sync::atomic::{AtomicBool, Ordering};

static TRIGGERED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    use super::TRIGGERED;
    use std::sync::atomic::Ordering;
    use std::sync::Once;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        TRIGGERED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        static ONCE: Once = Once::new();
        ONCE.call_once(|| unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        });
    }
}

#[cfg(not(unix))]
mod imp {
    /// No signal wiring off Unix; the flag can still be set in-process
    /// via [`super::trigger`] (tests, embedded supervisors).
    pub fn install() {}
}

/// Installs the SIGINT/SIGTERM handlers (idempotent).
pub fn install() {
    imp::install();
}

/// True once a shutdown signal has landed.
pub fn triggered() -> bool {
    TRIGGERED.load(Ordering::SeqCst)
}

/// Sets the flag programmatically — the in-process equivalent of a
/// signal, used by tests and embedded supervisors.
pub fn trigger() {
    TRIGGERED.store(true, Ordering::SeqCst);
}

/// Clears the flag (tests only; a real process exits after draining).
pub fn reset() {
    TRIGGERED.store(false, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_latches_until_reset() {
        reset();
        assert!(!triggered());
        trigger();
        assert!(triggered());
        assert!(triggered(), "flag latches");
        reset();
        assert!(!triggered());
    }
}
