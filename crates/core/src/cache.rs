//! The campaign-side face of the run cache: keying, result conversion,
//! and the per-campaign [`CacheSession`].
//!
//! Correctness rests on the workspace's determinism theorem — an
//! identical `(application, SimConfig)` pair produces a byte-identical
//! [`RunResult`] (`tests/config_fuzz.rs` proves this continuously) — so
//! replaying a stored result is indistinguishable from re-simulating,
//! measurement for measurement. The key is the canonical `Debug` text of
//! both values: every field that shapes the simulation (hardware
//! configuration, OS/RTL cost models, seed, scheduler, event bound,
//! background load, fault plan, and the full workload spec down to each
//! phase) appears in that text, so any change re-keys the experiment.
//! Behavior changes that do *not* alter the text must bump
//! `cedar_cache::MODEL_VERSION` instead.

use std::path::PathBuf;

use cedar_apps::AppSpec;
use cedar_cache::{CacheStats, CachedRun, Lookup, RunCache, RunKey};
use cedar_obs::{CacheMode, CedarError, RunOptions};

use crate::config::SimConfig;
use crate::result::RunResult;
use crate::run::execute;

/// The content address of one `(application, configuration)` experiment.
/// The canonical text (~2.5 KB for a Perfect app) is hashed as it is
/// formatted, never built as a `String`.
pub fn run_key(app: &AppSpec, cfg: &SimConfig) -> RunKey {
    RunKey::from_fmt(format_args!("app={app:?};cfg={cfg:?}"))
}

/// Projects a completed run into its cacheable mirror. The cedarhpm
/// trace is dropped by design — trace-keeping runs never reach the
/// cache (see [`CacheSession::execute`]).
pub fn to_cached(r: &RunResult) -> CachedRun {
    CachedRun {
        app: r.app.to_string(),
        configuration: r.configuration,
        completion_time: r.completion_time,
        breakdowns: r.breakdowns.clone(),
        utilization: r.utilization.clone(),
        os: r.os.clone(),
        concurrency: r.concurrency.clone(),
        gmem: r.gmem.clone(),
        background_stolen: r.background_stolen,
        bodies: r.bodies,
        faults: r.faults,
        events: r.events,
        stats: r.stats.clone(),
    }
}

/// Rehydrates a cached mirror into the [`RunResult`] the methodology
/// layer consumes. The app name is interned back to `&'static str`.
pub fn from_cached(c: CachedRun) -> RunResult {
    RunResult {
        app: cedar_cache::intern(&c.app),
        configuration: c.configuration,
        completion_time: c.completion_time,
        breakdowns: c.breakdowns,
        utilization: c.utilization,
        os: c.os,
        concurrency: c.concurrency,
        gmem: c.gmem,
        background_stolen: c.background_stolen,
        bodies: c.bodies,
        faults: c.faults,
        events: c.events,
        trace: None,
        stats: c.stats,
    }
}

/// Where the cache lives when the caller did not redirect output:
/// `results/cache/` at the workspace root, next to the manifests.
fn default_cache_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/cache")
}

/// How one experiment moved through cache policy — the per-call
/// counterpart of the session-cumulative [`CacheStats`]. A campaign
/// sharing a long-lived session (the serving path) folds these into
/// its own local traffic tally, so concurrent campaigns on the same
/// session never double-count each other's lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecOutcome {
    /// No cache configured: plain execution.
    Off,
    /// Trace-keeping run: cache policy skipped.
    Bypass,
    /// Served from the in-memory hot tier.
    HotHit,
    /// Served from the disk store.
    DiskHit,
    /// Simulated; `wrote` says whether the result was stored.
    Simulated { wrote: bool },
}

/// One campaign's cache handle: policy (from
/// [`RunOptions::cache`]) plus the open store. Shareable by reference
/// across the worker pool — all methods take `&self` and the store's
/// counters are atomic. A serving process keeps exactly one session
/// for its whole lifetime ([`crate::SuiteResult::run_sequential_shared`])
/// so the store — and its hot tier — is opened once, not per request.
#[derive(Debug)]
pub struct CacheSession {
    cache: Option<RunCache>,
}

impl CacheSession {
    /// Builds the session for `opts`. `CacheMode::Off` opens nothing
    /// and makes [`execute`](Self::execute) a plain passthrough; other
    /// modes open the store under `opts.output_dir`'s `cache/`
    /// subdirectory (or the workspace `results/cache/`), surfacing an
    /// unusable cache root as [`CedarError::CacheIo`]. A nonzero
    /// `opts.cache_hot` layers an in-memory hot tier of that many
    /// decoded runs over the store.
    pub fn new(opts: &RunOptions) -> Result<CacheSession, CedarError> {
        let cache = match opts.cache {
            CacheMode::Off => None,
            mode => {
                let root = opts
                    .output_dir
                    .as_ref()
                    .map(|d| d.join("cache"))
                    .unwrap_or_else(default_cache_root);
                Some(RunCache::open(root, mode)?.with_hot_capacity(opts.cache_hot))
            }
        };
        Ok(CacheSession { cache })
    }

    /// Runs one experiment through cache policy: serve a valid stored
    /// entry, otherwise simulate and (in writing modes) store the
    /// result. Trace-keeping runs bypass the cache entirely — the trace
    /// is a debugging artifact that is never serialized, and silently
    /// returning a traceless hit would break the caller.
    pub fn execute(&self, app: &AppSpec, cfg: SimConfig) -> RunResult {
        self.execute_traced(app, cfg).0
    }

    /// [`execute`](Self::execute), also reporting how the experiment
    /// moved through cache policy.
    pub fn execute_traced(&self, app: &AppSpec, cfg: SimConfig) -> (RunResult, ExecOutcome) {
        let Some(cache) = &self.cache else {
            return (execute(app, cfg), ExecOutcome::Off);
        };
        if cfg.keep_trace {
            cache.note_bypass();
            return (execute(app, cfg), ExecOutcome::Bypass);
        }
        let key = run_key(app, &cfg);
        if cache.mode().reads() {
            match cache.get_traced(&key) {
                (Some(hit), Lookup::HotHit) => return (from_cached(hit), ExecOutcome::HotHit),
                (Some(hit), _) => return (from_cached(hit), ExecOutcome::DiskHit),
                (None, _) => {}
            }
        } else {
            cache.note_refresh_miss();
        }
        let result = execute(app, cfg);
        let wrote = cache.mode().writes();
        if wrote {
            cache.put(&key, &to_cached(&result));
        }
        (result, ExecOutcome::Simulated { wrote })
    }

    /// The session's cumulative traffic counters, `None` when the
    /// cache is off.
    pub fn stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Whether the session has an in-memory hot tier attached.
    pub fn has_hot_tier(&self) -> bool {
        self.cache.as_ref().is_some_and(|c| c.has_hot_tier())
    }

    /// The hot tier's `(entries, capacity)`, when one is attached.
    pub fn hot_occupancy(&self) -> Option<(usize, usize)> {
        self.cache.as_ref().and_then(|c| c.hot_occupancy())
    }

    /// The session's cache mode ([`CacheMode::Off`] when no cache is
    /// configured).
    pub fn mode(&self) -> CacheMode {
        self.cache
            .as_ref()
            .map(|c| c.mode())
            .unwrap_or(CacheMode::Off)
    }

    /// Folds per-experiment [`ExecOutcome`]s into one campaign-local
    /// [`CacheStats`] — the sharing-safe alternative to diffing the
    /// session's cumulative counters, which would tangle concurrent
    /// campaigns on a shared session together. Hot-tier probes are only
    /// counted when a tier is actually attached, and evictions are a
    /// store-wide phenomenon with no per-campaign attribution, so they
    /// stay 0 here.
    pub fn fold_outcomes(&self, outcomes: &[ExecOutcome]) -> CacheStats {
        // The hot tier is only probed by reading modes (`Refresh` goes
        // straight to simulation), so only those count hot misses.
        let has_hot = self.has_hot_tier() && self.mode().reads();
        let mut s = CacheStats {
            mode: self.mode(),
            ..CacheStats::default()
        };
        for o in outcomes {
            match o {
                ExecOutcome::Off => {}
                ExecOutcome::Bypass => s.bypasses += 1,
                ExecOutcome::HotHit => {
                    s.hits += 1;
                    s.hot_hits += 1;
                }
                ExecOutcome::DiskHit => {
                    s.hits += 1;
                    s.hot_misses += u64::from(has_hot);
                }
                ExecOutcome::Simulated { wrote } => {
                    s.misses += 1;
                    s.hot_misses += u64::from(has_hot);
                    if *wrote {
                        s.writes += 1;
                    }
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_apps::synthetic;
    use cedar_hw::Configuration;

    #[test]
    fn keys_cover_app_and_config() {
        let app = synthetic::uniform_xdoall(1, 2, 4, 100, 8);
        let cfg = SimConfig::cedar(Configuration::P4);
        let k = run_key(&app, &cfg);
        assert_eq!(k, run_key(&app, &cfg), "keying is stable");
        assert_ne!(
            k,
            run_key(&app, &SimConfig::cedar(Configuration::P8)),
            "configuration changes the key"
        );
        assert_ne!(
            k,
            run_key(&app, &cfg.clone().with_seed(99)),
            "seed changes the key"
        );
        let other = synthetic::uniform_xdoall(1, 2, 4, 101, 8);
        assert_ne!(k, run_key(&other, &cfg), "workload changes the key");
    }

    #[test]
    fn keys_of_real_experiments_are_pinned() {
        // Stored cache entries and reply `key` fields are addressed by
        // these bits; a keying change that moves them orphans the whole
        // cache. Only a MODEL_VERSION bump may move (and re-pin) them.
        let mdg = cedar_apps::mdg::spec();
        let cfg = SimConfig::cedar(Configuration::P16);
        assert_eq!(
            run_key(&mdg, &cfg).hex(),
            "b3c1fb645ab46098d5bfaade7139e7e1"
        );
        let app = synthetic::uniform_xdoall(1, 2, 4, 100, 8);
        assert_eq!(
            run_key(&app, &SimConfig::cedar(Configuration::P4)).hex(),
            "724eb5e7c28ab1080b4d64910f125295"
        );
    }

    #[test]
    fn cached_round_trip_preserves_the_result() {
        let app = synthetic::uniform_xdoall(1, 2, 8, 150, 8);
        let cfg = SimConfig::cedar(Configuration::P4);
        let direct = execute(&app, cfg.clone());
        let replayed =
            from_cached(CachedRun::decode(&to_cached(&direct).encode()).expect("decode"));
        assert_eq!(direct.app, replayed.app);
        assert!(std::ptr::eq(direct.app, replayed.app) || direct.app == replayed.app);
        assert_eq!(direct.completion_time, replayed.completion_time);
        assert_eq!(direct.events, replayed.events);
        assert_eq!(
            to_cached(&direct).encode(),
            to_cached(&replayed).encode(),
            "full measurement payload survives"
        );
    }

    #[test]
    fn unusable_cache_root_is_a_typed_error() {
        let file = std::env::temp_dir().join(format!("cedar-cache-root-{}", std::process::id()));
        std::fs::write(&file, "not a directory").unwrap();
        let err = RunCache::open(&file, CacheMode::ReadWrite).unwrap_err();
        assert_eq!(err.kind(), "cache_io");
        assert_eq!(err.http_status(), 500);
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn off_session_is_a_passthrough() {
        let session = CacheSession::new(&RunOptions::default()).unwrap();
        assert!(session.stats().is_none());
        let app = synthetic::uniform_xdoall(1, 1, 4, 100, 8);
        let r = session.execute(&app, SimConfig::cedar(Configuration::P1));
        assert!(r.completion_time.0 > 0);
    }
}
