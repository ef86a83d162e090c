//! The process environment, read once.
//!
//! Every `DNA_*` variable the system honours is parsed here, into one
//! [`Env`], the first time anything asks — so no hot path re-reads the
//! process environment, a variable cannot mean different things to
//! different crates, and the README's variable table has one site to
//! point at. Environment only: none of these has a flag twin.

use std::sync::OnceLock;

/// Every environment knob, as latched by [`env()`]. Unset, empty or
/// malformed values keep the [`Default`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Env {
    /// `DNA_OBS_DISABLED`: any value but empty/`0` turns every
    /// process-global telemetry handle, ring and log into a no-op.
    pub obs_disabled: bool,
    /// `DNA_OBS_SLOW_EPOCH_MS`: epochs applying slower than this are
    /// logged to stderr as they happen (default: no log).
    pub slow_epoch_ms: Option<u64>,
    /// `DNA_OBS_SLOW_QUERY_US`: queries answered slower than this are
    /// logged to stderr (default: no log).
    pub slow_query_us: Option<u64>,
    /// `DNA_OBS_STALE_MS`: `health` — a session whose engine heartbeat
    /// is older than this while work is queued for it is degraded
    /// (default 5000).
    pub stale_ms: u64,
    /// `DNA_OBS_QUEUE_DEPTH_WARN`: `health` — ingest-queue depth above
    /// which a session is degraded (default 64).
    pub queue_depth_warn: u64,
    /// `DNA_OBS_EPOCHS_BEHIND_WARN`: `health` — enqueued-but-unapplied
    /// epoch count above which a session is degraded (default 256).
    pub epochs_behind_warn: u64,
    /// `DNA_SERVE_FAULT_LABEL`: fault injection — ingesting a trace
    /// epoch carrying this label panics the engine (default: no fault).
    pub fault_label: Option<String>,
}

impl Default for Env {
    fn default() -> Self {
        Env {
            obs_disabled: false,
            slow_epoch_ms: None,
            slow_query_us: None,
            stale_ms: 5_000,
            queue_depth_warn: 64,
            epochs_behind_warn: 256,
            fault_label: None,
        }
    }
}

impl Env {
    fn read() -> Env {
        let var = |name: &str| std::env::var(name).ok().filter(|v| !v.is_empty());
        let number = |name: &str| var(name).and_then(|v| v.trim().parse::<u64>().ok());
        let default = Env::default();
        Env {
            obs_disabled: var("DNA_OBS_DISABLED").is_some_and(|v| v != "0"),
            slow_epoch_ms: number("DNA_OBS_SLOW_EPOCH_MS"),
            slow_query_us: number("DNA_OBS_SLOW_QUERY_US"),
            stale_ms: number("DNA_OBS_STALE_MS").unwrap_or(default.stale_ms),
            queue_depth_warn: number("DNA_OBS_QUEUE_DEPTH_WARN")
                .unwrap_or(default.queue_depth_warn),
            epochs_behind_warn: number("DNA_OBS_EPOCHS_BEHIND_WARN")
                .unwrap_or(default.epochs_behind_warn),
            fault_label: var("DNA_SERVE_FAULT_LABEL"),
        }
    }
}

/// The process environment, read and parsed on the first call and
/// latched for the life of the process.
pub fn env() -> &'static Env {
    static ENV: OnceLock<Env> = OnceLock::new();
    ENV.get_or_init(Env::read)
}
