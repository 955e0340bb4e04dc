//! Deterministic fault injection for robustness testing.
//!
//! A *failpoint* is a named site in production code — a segment read, a
//! manifest rename, a worker-pool job, a server accept — that asks this
//! module whether it should fail *right now* before doing its real work:
//!
//! ```ignore
//! if let Some(failure) = failpoints::trigger("snapshot.segment.read") {
//!     return Err(failure.into_io_error("snapshot.segment.read"));
//! }
//! ```
//!
//! With the `failpoints` cargo feature **disabled** (the default),
//! [`trigger`] is an `#[inline(always)]` function returning `None` — the
//! call compiles away entirely and production builds pay nothing.  With the
//! feature enabled, a process-global registry scripts each site's behavior:
//!
//! * `script` — a finite per-site action sequence consumed one trigger at
//!   a time (`[IoError(Interrupted), Pass, …]` is the classic
//!   *once-then-succeed* transient fault); when the script runs dry the
//!   site passes.
//! * `always` — the same action on every trigger (a persistently broken
//!   disk).
//! * `arm_seeded` — a seeded probabilistic schedule over *every* site:
//!   each site derives its own RNG stream from `hash(seed, site)`, so the
//!   per-site failure sequence is a pure function of the seed and that
//!   site's trigger count — deterministic regardless of how threads
//!   interleave across *different* sites.
//!
//! Actions are: return a typed [`Failure`] (an `io::Error` kind or a
//! corruption marker the site converts to its own error type), `Panic`
//! (raised inside [`trigger`] — exercises poison recovery), `SleepMs`
//! (latency injection, slept inside [`trigger`]) and `Pass`.  `hits`
//! counts every trigger per site, configured or not, so tests can assert a
//! site is actually wired.  `disarm_all` resets the registry between
//! tests; suites sharing the process-global registry must serialize on a
//! lock of their own.

use std::io;

/// What a triggered failpoint asks its site to do.  The site converts this
/// into its native error type; `Panic` and `SleepMs` actions never surface
/// here — they happen inside [`trigger`] itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// Fail with an `io::Error` of this kind.
    Io(io::ErrorKind),
    /// Report the payload as corrupt (bad bytes, failed checksum).
    Corrupt,
}

impl Failure {
    /// Renders this failure as an `io::Error` naming the failpoint, for
    /// sites whose natural error channel is IO.  `Corrupt` maps to
    /// `InvalidData`.
    pub fn into_io_error(self, site: &str) -> io::Error {
        match self {
            Failure::Io(kind) => {
                io::Error::new(kind, format!("injected fault at failpoint '{site}'"))
            }
            Failure::Corrupt => io::Error::new(
                io::ErrorKind::InvalidData,
                format!("injected corruption at failpoint '{site}'"),
            ),
        }
    }
}

/// One scripted behavior for a site trigger.
#[cfg(feature = "failpoints")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Return [`Failure::Io`] with this kind.
    IoError(io::ErrorKind),
    /// Return [`Failure::Corrupt`].
    Corrupt,
    /// Panic inside [`trigger`] (after releasing the registry lock).
    Panic,
    /// Sleep this long inside [`trigger`], then pass.
    SleepMs(u64),
    /// Do nothing; the site proceeds normally.
    Pass,
}

#[cfg(not(feature = "failpoints"))]
mod imp {
    use super::Failure;

    /// No-op when the `failpoints` feature is off: always passes, inlines
    /// to nothing.
    #[inline(always)]
    pub fn trigger(_site: &str) -> Option<Failure> {
        None
    }
}

#[cfg(feature = "failpoints")]
mod imp {
    use super::{Action, Failure};
    use std::collections::{HashMap, VecDeque};
    use std::hash::{Hash, Hasher};
    use std::sync::{Mutex, MutexGuard, OnceLock};

    #[derive(Debug)]
    enum Behavior {
        Script(VecDeque<Action>),
        Always(Action),
    }

    #[derive(Debug)]
    struct Seeded {
        seed: u64,
        /// Failure probability per trigger, in thousandths.
        permille: u16,
        actions: Vec<Action>,
        /// Per-site RNG state, lazily derived from `hash(seed, site)`.
        streams: HashMap<String, u64>,
    }

    #[derive(Debug, Default)]
    struct Registry {
        sites: HashMap<String, Behavior>,
        hits: HashMap<String, u64>,
        seeded: Option<Seeded>,
    }

    fn registry() -> MutexGuard<'static, Registry> {
        static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
        REGISTRY
            .get_or_init(|| Mutex::new(Registry::default()))
            .lock()
            // A Panic action poisons this mutex by design; the registry
            // state is always internally consistent, so recover it.
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn site_stream_seed(seed: u64, site: &str) -> u64 {
        let mut hasher = crate::hash::FxHasher::default();
        seed.hash(&mut hasher);
        site.hash(&mut hasher);
        hasher.finish()
    }

    /// Scripts `site` to perform `actions` one per trigger, in order; once
    /// the script is exhausted the site passes forever.  Replaces any
    /// previous behavior for the site.
    pub fn script(site: &str, actions: &[Action]) {
        registry().sites.insert(
            site.to_string(),
            Behavior::Script(actions.iter().copied().collect()),
        );
    }

    /// Scripts `site` to perform `action` on every trigger.
    pub fn always(site: &str, action: Action) {
        registry()
            .sites
            .insert(site.to_string(), Behavior::Always(action));
    }

    /// Arms a seeded probabilistic schedule over every site that has no
    /// explicit script: each trigger independently fails with probability
    /// `permille`/1000, drawing the action from `actions` — all driven by a
    /// per-site RNG stream derived from `hash(seed, site)`, so each site's
    /// fault sequence is deterministic in its own trigger order no matter
    /// how threads interleave across sites.
    pub fn arm_seeded(seed: u64, permille: u16, actions: &[Action]) {
        registry().seeded = Some(Seeded {
            seed,
            permille: permille.min(1000),
            actions: actions.to_vec(),
            streams: HashMap::new(),
        });
    }

    /// Removes the explicit behavior for one site (seeded schedules still
    /// apply to it).
    pub fn disarm(site: &str) {
        registry().sites.remove(site);
    }

    /// Clears every script, the seeded schedule and all hit counters.
    pub fn disarm_all() {
        let mut reg = registry();
        reg.sites.clear();
        reg.seeded = None;
        reg.hits.clear();
    }

    /// How many times `site` has triggered since the last [`disarm_all`].
    pub fn hits(site: &str) -> u64 {
        registry().hits.get(site).copied().unwrap_or(0)
    }

    /// Every site that has triggered since the last [`disarm_all`], with
    /// its hit count, in site-name order.
    pub fn sites_hit() -> Vec<(String, u64)> {
        let reg = registry();
        let mut all: Vec<(String, u64)> = reg.hits.iter().map(|(s, n)| (s.clone(), *n)).collect();
        all.sort();
        all
    }

    /// Asks whether `site` should fail now.  Counts the hit, consumes one
    /// scripted action (or draws from the seeded schedule), performs
    /// `Panic`/`SleepMs` actions in place, and returns the failure the
    /// site should surface, if any.
    pub fn trigger(site: &str) -> Option<Failure> {
        let action = {
            let mut reg = registry();
            *reg.hits.entry(site.to_string()).or_insert(0) += 1;
            match reg.sites.get_mut(site) {
                Some(Behavior::Script(actions)) => actions.pop_front().unwrap_or(Action::Pass),
                Some(Behavior::Always(action)) => *action,
                None => match reg.seeded.as_mut() {
                    Some(seeded) => {
                        let fallback = site_stream_seed(seeded.seed, site);
                        let state = seeded.streams.entry(site.to_string()).or_insert(fallback);
                        let draw = splitmix64(state);
                        if seeded.actions.is_empty() || (draw % 1000) >= seeded.permille as u64 {
                            Action::Pass
                        } else {
                            let pick = splitmix64(state) as usize % seeded.actions.len();
                            seeded.actions[pick]
                        }
                    }
                    None => Action::Pass,
                },
            }
            // Registry lock released here: Panic must not poison it and
            // SleepMs must not serialize unrelated sites.
        };
        match action {
            Action::Pass => None,
            Action::IoError(kind) => Some(Failure::Io(kind)),
            Action::Corrupt => Some(Failure::Corrupt),
            Action::Panic => panic!("injected panic at failpoint '{site}'"),
            Action::SleepMs(ms) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                None
            }
        }
    }
}

pub use imp::trigger;
#[cfg(feature = "failpoints")]
pub use imp::{always, arm_seeded, disarm, disarm_all, hits, script, sites_hit};

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// The registry is process-global; tests must not interleave.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn scripts_consume_one_action_per_trigger_then_pass() {
        let _guard = serial();
        disarm_all();
        script(
            "t.script",
            &[
                Action::IoError(std::io::ErrorKind::Interrupted),
                Action::Pass,
                Action::Corrupt,
            ],
        );
        assert_eq!(
            trigger("t.script"),
            Some(Failure::Io(std::io::ErrorKind::Interrupted))
        );
        assert_eq!(trigger("t.script"), None);
        assert_eq!(trigger("t.script"), Some(Failure::Corrupt));
        // Script exhausted: passes forever after.
        assert_eq!(trigger("t.script"), None);
        assert_eq!(trigger("t.script"), None);
        assert_eq!(hits("t.script"), 5);
        disarm_all();
    }

    #[test]
    fn always_fails_every_trigger_until_disarmed() {
        let _guard = serial();
        disarm_all();
        always("t.always", Action::IoError(std::io::ErrorKind::TimedOut));
        for _ in 0..3 {
            assert_eq!(
                trigger("t.always"),
                Some(Failure::Io(std::io::ErrorKind::TimedOut))
            );
        }
        disarm("t.always");
        assert_eq!(trigger("t.always"), None);
        disarm_all();
    }

    #[test]
    fn unconfigured_sites_pass_but_count_hits() {
        let _guard = serial();
        disarm_all();
        assert_eq!(trigger("t.unconfigured"), None);
        assert_eq!(trigger("t.unconfigured"), None);
        assert_eq!(hits("t.unconfigured"), 2);
        assert!(sites_hit().contains(&("t.unconfigured".to_string(), 2)));
        disarm_all();
        assert_eq!(hits("t.unconfigured"), 0);
    }

    #[test]
    fn seeded_schedules_are_deterministic_per_site() {
        let _guard = serial();
        let sequence = |seed: u64| -> Vec<Option<Failure>> {
            disarm_all();
            arm_seeded(seed, 500, &[Action::Corrupt]);
            (0..32).map(|_| trigger("t.seeded")).collect()
        };
        let first = sequence(42);
        let second = sequence(42);
        assert_eq!(first, second, "same seed must replay the same faults");
        assert!(
            first.iter().any(|f| f.is_some()) && first.iter().any(|f| f.is_none()),
            "at 50% permille over 32 draws both outcomes should occur"
        );
        let other = sequence(43);
        assert_ne!(first, other, "different seeds should diverge");
        disarm_all();
    }

    #[test]
    fn seeded_schedule_yields_to_explicit_scripts() {
        let _guard = serial();
        disarm_all();
        arm_seeded(7, 1000, &[Action::Corrupt]);
        script("t.override", &[Action::Pass]);
        assert_eq!(trigger("t.override"), None, "script wins over schedule");
        // Script exhausted: still no seeded faults for scripted sites.
        assert_eq!(trigger("t.override"), None);
        disarm_all();
    }

    #[test]
    fn panic_actions_raise_and_the_registry_survives() {
        let _guard = serial();
        disarm_all();
        script("t.panic", &[Action::Panic]);
        let result = std::panic::catch_unwind(|| trigger("t.panic"));
        assert!(result.is_err(), "Panic action must panic");
        // The registry must still be usable after the injected panic.
        assert_eq!(trigger("t.panic"), None);
        assert_eq!(hits("t.panic"), 2);
        disarm_all();
    }

    #[test]
    fn sleep_actions_delay_then_pass() {
        let _guard = serial();
        disarm_all();
        script("t.sleep", &[Action::SleepMs(20)]);
        let start = std::time::Instant::now();
        assert_eq!(trigger("t.sleep"), None);
        assert!(start.elapsed() >= std::time::Duration::from_millis(20));
        disarm_all();
    }

    #[test]
    fn failures_render_as_io_errors_naming_the_site() {
        let io = Failure::Io(std::io::ErrorKind::TimedOut).into_io_error("s.read");
        assert_eq!(io.kind(), std::io::ErrorKind::TimedOut);
        assert!(io.to_string().contains("s.read"));
        let corrupt = Failure::Corrupt.into_io_error("s.decode");
        assert_eq!(corrupt.kind(), std::io::ErrorKind::InvalidData);
        assert!(corrupt.to_string().contains("s.decode"));
    }
}
