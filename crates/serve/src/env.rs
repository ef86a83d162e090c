//! The `dna-serve` environment knobs, each latched on first use — like
//! `DNA_OBS_DISABLED` in [`dna_obs`] — so no hot path re-reads the
//! process environment.

use crate::obs::Thresholds;
use std::sync::OnceLock;

/// The `health` classification thresholds (`DNA_OBS_STALE_MS`,
/// `DNA_OBS_QUEUE_DEPTH_WARN`, `DNA_OBS_EPOCHS_BEHIND_WARN`).
pub(crate) fn thresholds() -> &'static Thresholds {
    static THRESHOLDS: OnceLock<Thresholds> = OnceLock::new();
    THRESHOLDS.get_or_init(Thresholds::from_env)
}

/// The fault-injection label (`DNA_SERVE_FAULT_LABEL`): ingesting a
/// trace epoch carrying it panics the engine. This crate's unit tests
/// get a fixed label instead — the environment is process-global, and
/// a latch cannot be re-armed per test.
pub(crate) fn fault_label() -> Option<&'static str> {
    static LABEL: OnceLock<Option<String>> = OnceLock::new();
    if cfg!(test) {
        return Some("deliberately poisoned (test hook)");
    }
    let read = || std::env::var("DNA_SERVE_FAULT_LABEL").ok();
    LABEL
        .get_or_init(|| read().filter(|label| !label.is_empty()))
        .as_deref()
}
