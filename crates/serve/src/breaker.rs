//! Per-backend circuit breakers.
//!
//! A backend that starts failing (an emulated device dropping jobs, a store
//! volume going bad) should not absorb every worker's full retry budget on
//! every job. Each backend fingerprint gets a breaker:
//!
//! * **closed** — calls pass through; outcomes land in a sliding window.
//!   When at least [`BreakerConfig::window`] outcomes are recorded and the
//!   failure count reaches [`BreakerConfig::failure_threshold`], the
//!   breaker opens.
//! * **open** — the next [`BreakerConfig::cooldown`] calls are rejected
//!   immediately with a transient error (cheap, no backend work), then the
//!   breaker moves to half-open.
//! * **half-open** — exactly one probe call passes through; success closes
//!   the breaker (window reset), failure re-opens it.
//!
//! Transitions count *calls*, not wall-clock time, so breaker behavior in
//! tests and chaos runs is deterministic under any scheduling.
//!
//! Breakers live in a [`BreakerRegistry`] instance, not in a process-global
//! static: each scheduler owns one and hands it to execution through
//! [`crate::ExecCtl`], so two schedulers (or two tests) in one process never
//! see each other's breaker state.

use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

/// Breaker tuning. One config applies to every breaker of a registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Sliding-window length (outcomes).
    pub window: usize,
    /// Failures within the window that open the breaker.
    pub failure_threshold: usize,
    /// Rejected calls before an open breaker allows a half-open probe.
    pub cooldown: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 8,
            failure_threshold: 4,
            cooldown: 3,
        }
    }
}

#[derive(Debug)]
enum BreakerState {
    Closed { recent: VecDeque<bool> },
    Open { rejected: u32 },
    HalfOpen,
}

#[derive(Debug)]
struct Breaker {
    cfg: BreakerConfig,
    state: BreakerState,
}

impl Breaker {
    fn new(cfg: BreakerConfig) -> Breaker {
        Breaker {
            cfg,
            state: BreakerState::Closed {
                recent: VecDeque::new(),
            },
        }
    }

    /// Returns an error when the call must be rejected; otherwise the caller
    /// may proceed (and must report the outcome via `record`).
    fn admit(&mut self, name: &str) -> Result<(), String> {
        match &mut self.state {
            BreakerState::Closed { .. } | BreakerState::HalfOpen => Ok(()),
            BreakerState::Open { rejected } => {
                if *rejected < self.cfg.cooldown {
                    *rejected += 1;
                    Err(format!(
                        "{} circuit open for {name} ({}/{} cooldown)",
                        qaprox_fault::TRANSIENT_PREFIX,
                        rejected,
                        self.cfg.cooldown
                    ))
                } else {
                    self.state = BreakerState::HalfOpen;
                    Ok(())
                }
            }
        }
    }

    fn record(&mut self, success: bool) {
        match &mut self.state {
            BreakerState::Closed { recent } => {
                recent.push_back(success);
                while recent.len() > self.cfg.window {
                    recent.pop_front();
                }
                let failures = recent.iter().filter(|ok| !**ok).count();
                if recent.len() >= self.cfg.window && failures >= self.cfg.failure_threshold {
                    self.state = BreakerState::Open { rejected: 0 };
                }
            }
            BreakerState::HalfOpen => {
                self.state = if success {
                    BreakerState::Closed {
                        recent: VecDeque::new(),
                    }
                } else {
                    BreakerState::Open { rejected: 0 }
                };
            }
            BreakerState::Open { .. } => {} // late result of an earlier call
        }
    }

    fn state_name(&self) -> &'static str {
        match self.state {
            BreakerState::Closed { .. } => "closed",
            BreakerState::Open { .. } => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// The breakers of one scheduler, keyed by backend fingerprint and created
/// closed on first use.
#[derive(Debug, Default)]
pub struct BreakerRegistry {
    cfg: BreakerConfig,
    breakers: Mutex<HashMap<String, Breaker>>,
}

impl BreakerRegistry {
    /// An empty registry whose breakers all use `cfg`.
    pub fn new(cfg: BreakerConfig) -> Self {
        BreakerRegistry {
            cfg,
            breakers: Mutex::new(HashMap::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, Breaker>> {
        self.breakers.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs `f` through the breaker for `name`. Open-state rejections carry
    /// the transient prefix so the worker retry loop drives the cooldown
    /// toward the half-open probe.
    pub fn call<T>(&self, name: &str, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        self.lock()
            .entry(name.to_string())
            .or_insert_with(|| Breaker::new(self.cfg.clone()))
            .admit(name)?;
        // run without holding the registry lock: other backends stay live
        let out = f();
        if let Some(breaker) = self.lock().get_mut(name) {
            breaker.record(out.is_ok());
        }
        out
    }

    /// The named breaker's state (`closed` / `open` / `half-open`), or
    /// `closed` when it has never been used.
    pub fn state(&self, name: &str) -> &'static str {
        self.lock().get(name).map_or("closed", Breaker::state_name)
    }

    /// Every breaker the registry has touched, as `(name, state)` pairs
    /// sorted by name — what the `stats` wire op reports so operators can
    /// see which backends are currently being rejected without probing each
    /// by name.
    pub fn states_all(&self) -> Vec<(String, &'static str)> {
        let mut out: Vec<(String, &'static str)> = self
            .lock()
            .iter()
            .map(|(name, b)| (name.clone(), b.state_name()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BreakerRegistry {
        BreakerRegistry::new(BreakerConfig {
            window: 4,
            failure_threshold: 2,
            cooldown: 2,
        })
    }

    #[test]
    fn breaker_walks_closed_open_halfopen_closed() {
        let name = "test.walk";
        let reg = tiny();
        let fail = || reg.call::<()>(name, || Err("boom".into()));
        let ok = || reg.call(name, || Ok(1u32));

        // under window: failures pass through while observations accumulate
        assert_eq!(fail().unwrap_err(), "boom");
        assert_eq!(ok().unwrap(), 1);
        assert_eq!(fail().unwrap_err(), "boom");
        assert_eq!(ok().unwrap(), 1);
        assert_eq!(reg.state(name), "open", "2 failures in a window of 4");

        // open: cooldown calls reject fast with a transient message
        for _ in 0..2 {
            let err = ok().unwrap_err();
            assert!(qaprox_fault::is_transient(&err), "{err}");
            assert!(err.contains(name), "{err}");
        }
        // next call is the half-open probe; success closes the breaker
        assert_eq!(ok().unwrap(), 1);
        assert_eq!(reg.state(name), "closed");

        // the window was reset: two fresh failures alone cannot re-open
        assert_eq!(fail().unwrap_err(), "boom");
        assert_eq!(fail().unwrap_err(), "boom");
        assert_eq!(reg.state(name), "closed", "window not yet full after reset");
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        let name = "test.reopen";
        let reg = tiny();
        for _ in 0..2 {
            let _ = reg.call::<()>(name, || Err("boom".into()));
            let _ = reg.call(name, || Ok(()));
        }
        assert_eq!(reg.state(name), "open");
        for _ in 0..2 {
            let _ = reg.call(name, || Ok(()));
        }
        // probe fails → straight back to open, full cooldown again
        let err = reg
            .call::<()>(name, || Err("still down".into()))
            .unwrap_err();
        assert_eq!(err, "still down");
        assert_eq!(reg.state(name), "open");
        let err = reg.call(name, || Ok(())).unwrap_err();
        assert!(qaprox_fault::is_transient(&err), "{err}");
    }

    #[test]
    fn states_all_lists_touched_breakers_sorted() {
        let reg = tiny();
        let _ = reg.call("test.b", || Ok(()));
        for _ in 0..4 {
            let _ = reg.call::<()>("test.a", || Err("x".into()));
        }
        let states = reg.states_all();
        assert_eq!(
            states,
            vec![
                ("test.a".to_string(), "open"),
                ("test.b".to_string(), "closed")
            ]
        );
    }

    #[test]
    fn registries_are_isolated_from_each_other() {
        let (a, b) = (tiny(), tiny());
        for _ in 0..4 {
            let _ = a.call::<()>("test.shared", || Err("x".into()));
        }
        assert_eq!(a.state("test.shared"), "open");
        assert_eq!(b.state("test.shared"), "closed");
        assert!(b.states_all().is_empty());
        assert_eq!(b.call("test.shared", || Ok(7)).unwrap(), 7);
    }

    #[test]
    fn breakers_are_isolated_per_name() {
        let reg = tiny();
        for _ in 0..4 {
            let _ = reg.call::<()>("test.iso.bad", || Err("x".into()));
        }
        assert_eq!(reg.state("test.iso.bad"), "open");
        assert_eq!(reg.state("test.iso.good"), "closed");
        assert_eq!(reg.call("test.iso.good", || Ok(7)).unwrap(), 7);
    }
}
