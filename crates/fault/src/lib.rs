//! Deterministic failpoint registry for the qaprox service stack.
//!
//! The paper's pipeline talks to flaky physical backends: IBM jobs fail
//! transiently, queues reject work, calibrations drift mid-run. Testing the
//! service layer's reaction to those failures requires *provoking* them on
//! purpose, reproducibly. This crate provides named failpoints — code sites
//! that can be armed at runtime to inject an error return, a panic, a delay,
//! or a torn write — with triggering driven by the in-repo SplitMix64 RNG so
//! a chaos schedule is a pure function of its seed.
//!
//! # Zero cost when disabled
//!
//! The `fail_point!` macros are defined twice, gated on this crate's
//! `failpoints` feature. Without the feature every expansion is an empty
//! block: the registry is never consulted, the handler closure is never
//! constructed, and instrumented code compiles exactly as if the macro were
//! not there. Cargo feature unification means enabling `failpoints` on any
//! crate in the build graph arms every instrumented site at once.
//!
//! # Spec grammar ([`configure`])
//!
//! ```text
//! spec     := point (',' point)*
//! point    := name '=' trigger ('->' action)?
//! trigger  := 'always' | 'never' | 'after:' N | 'prob:' P (';seed=' S)?
//! action   := 'error' | 'panic' | 'torn' | 'sleep:' MS
//! ```
//!
//! `P` accepts both `0.3` and `p0.3`. `after:N` passes the first `N`
//! evaluations, fires exactly once on evaluation `N+1`, then disarms —
//! the shape used to crash a job at a known checkpoint. `prob:P` fires each
//! evaluation independently with probability `P` from a per-point SplitMix64
//! stream (seeded by `S`, or by a stable hash of the point name when
//! omitted). The default action is `error`.
//!
//! Example: `store.write=prob:p0.1;seed=7->torn,synth.round=after:2->panic`.

use qaprox_linalg::hashing::hash128;
use qaprox_linalg::random::{Rng, SplitMix64};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Return an injected error from the instrumented function (the
    /// `fail_point!(name, handler)` form maps this to the site's error type).
    Error,
    /// Panic with [`INJECTED_PANIC_MARKER`] in the message. Sites treat this
    /// as an emulated process crash.
    Panic,
    /// Sleep for the given number of milliseconds, then continue normally.
    Sleep(u64),
    /// Corrupt the write in progress (only meaningful at write sites, which
    /// handle it explicitly; elsewhere it behaves like [`FaultAction::Error`]).
    Torn,
}

/// When an armed failpoint fires.
#[derive(Debug, Clone)]
enum Trigger {
    Always,
    Never,
    /// Pass the first `pass` evaluations, fire once, then disarm.
    After {
        pass: u64,
        fired: bool,
    },
    /// Fire each evaluation independently with probability `p`.
    Prob {
        p: f64,
        rng: SplitMix64,
    },
}

#[derive(Debug, Clone)]
struct Point {
    trigger: Trigger,
    action: FaultAction,
    evals: u64,
    fires: u64,
}

fn registry() -> &'static Mutex<HashMap<String, Point>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Point>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lock_registry() -> MutexGuard<'static, HashMap<String, Point>> {
    registry().lock().unwrap_or_else(|e| e.into_inner())
}

/// Marker carried by every injected panic message. Catch-unwind sites use it
/// to distinguish an emulated crash from a genuine engine bug.
pub const INJECTED_PANIC_MARKER: &str = "qaprox-fault injected panic";

/// Prefix that classifies an error message as transient (retryable).
pub const TRANSIENT_PREFIX: &str = "transient:";

/// The error message an [`FaultAction::Error`] injection produces at `name`.
/// Carries [`TRANSIENT_PREFIX`] so retry layers classify it as retryable.
pub fn injected_error(name: &str) -> String {
    format!("{TRANSIENT_PREFIX} injected fault at {name}")
}

/// True when an error message is classified transient (worth retrying).
pub fn is_transient(msg: &str) -> bool {
    msg.contains(TRANSIENT_PREFIX)
}

/// Panics with the injected-crash marker. Called by the `fail_point!`
/// expansion; public only for the macro.
pub fn panic_now(name: &str) -> ! {
    panic!("{INJECTED_PANIC_MARKER} at {name}");
}

/// Sleeps `ms` milliseconds. Called by the `fail_point!` expansion; public
/// only for the macro.
pub fn sleep_now(ms: u64) {
    std::thread::sleep(std::time::Duration::from_millis(ms));
}

/// True when a panic payload came from an injected [`FaultAction::Panic`].
pub fn is_injected_panic(msg: &str) -> bool {
    msg.contains(INJECTED_PANIC_MARKER)
}

fn parse_action(s: &str) -> Result<FaultAction, String> {
    if let Some(ms) = s.strip_prefix("sleep:") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| format!("invalid sleep duration {ms:?}"))?;
        return Ok(FaultAction::Sleep(ms));
    }
    match s {
        "error" => Ok(FaultAction::Error),
        "panic" => Ok(FaultAction::Panic),
        "torn" => Ok(FaultAction::Torn),
        other => Err(format!("unknown fault action {other:?}")),
    }
}

fn parse_trigger(s: &str, name: &str) -> Result<Trigger, String> {
    let mut parts = s.split(';');
    let head = parts.next().unwrap_or("");
    let mut seed: Option<u64> = None;
    for extra in parts {
        if let Some(v) = extra.strip_prefix("seed=") {
            seed = Some(v.parse().map_err(|_| format!("invalid seed {v:?}"))?);
        } else {
            return Err(format!("unknown trigger option {extra:?}"));
        }
    }
    if head == "always" {
        return Ok(Trigger::Always);
    }
    if head == "never" || head == "off" {
        return Ok(Trigger::Never);
    }
    if let Some(n) = head.strip_prefix("after:") {
        let pass: u64 = n.parse().map_err(|_| format!("invalid count {n:?}"))?;
        return Ok(Trigger::After { pass, fired: false });
    }
    if let Some(p) = head.strip_prefix("prob:") {
        let p = p.strip_prefix('p').unwrap_or(p);
        let p: f64 = p
            .parse()
            .map_err(|_| format!("invalid probability {p:?}"))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("probability {p} outside [0, 1]"));
        }
        // Stable per-name default seed so unseeded specs are still
        // deterministic run to run.
        let seed = seed.unwrap_or_else(|| hash128(name.as_bytes()).0);
        return Ok(Trigger::Prob {
            p,
            rng: SplitMix64::seed_from_u64(seed),
        });
    }
    Err(format!("unknown trigger {head:?}"))
}

fn parse_point(item: &str) -> Result<(String, Point), String> {
    let (name, rest) = item
        .split_once('=')
        .ok_or_else(|| format!("failpoint spec {item:?} missing '='"))?;
    let name = name.trim();
    if name.is_empty() {
        return Err(format!("failpoint spec {item:?} has an empty name"));
    }
    let (trigger, action) = match rest.split_once("->") {
        Some((t, a)) => (parse_trigger(t.trim(), name)?, parse_action(a.trim())?),
        None => (parse_trigger(rest.trim(), name)?, FaultAction::Error),
    };
    Ok((
        name.to_string(),
        Point {
            trigger,
            action,
            evals: 0,
            fires: 0,
        },
    ))
}

/// Arms the failpoints described by `spec` (see the module docs for the
/// grammar), merging into whatever is already configured. Returns the number
/// of points parsed.
pub fn configure(spec: &str) -> Result<usize, String> {
    let mut parsed = Vec::new();
    for item in spec.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        parsed.push(parse_point(item)?);
    }
    let mut reg = lock_registry();
    let n = parsed.len();
    for (name, point) in parsed {
        reg.insert(name, point);
    }
    Ok(n)
}

/// Disarms every failpoint and forgets all counters.
pub fn clear() {
    lock_registry().clear();
}

/// Evaluates the failpoint `name`: returns the action to take when it fires,
/// `None` when it passes (or is not armed). Called by the `fail_point!`
/// expansion; callers outside the macro are tests and diagnostics.
pub fn eval(name: &str) -> Option<FaultAction> {
    let mut reg = lock_registry();
    let point = reg.get_mut(name)?;
    point.evals += 1;
    let evals = point.evals;
    let fire = match &mut point.trigger {
        Trigger::Always => true,
        Trigger::Never => false,
        Trigger::After { pass, fired } => {
            if *fired || evals <= *pass {
                false
            } else {
                *fired = true;
                true
            }
        }
        Trigger::Prob { p, rng } => rng.gen::<f64>() < *p,
    };
    if fire {
        point.fires += 1;
        Some(point.action.clone())
    } else {
        None
    }
}

/// How many times `name` has been evaluated since it was armed.
pub fn evals(name: &str) -> u64 {
    lock_registry().get(name).map_or(0, |p| p.evals)
}

/// How many times `name` has fired since it was armed.
pub fn fires(name: &str) -> u64 {
    lock_registry().get(name).map_or(0, |p| p.fires)
}

/// Names of all armed failpoints, sorted.
pub fn armed() -> Vec<String> {
    let mut names: Vec<String> = lock_registry().keys().cloned().collect();
    names.sort();
    names
}

/// RAII guard for fault-injection tests. The registry is process-global and
/// Rust runs tests concurrently, so every test that arms failpoints must
/// serialize through this guard: `Scenario::setup` takes a global lock,
/// clears the registry, arms `spec`, and disarms everything again on drop.
pub struct Scenario {
    _guard: MutexGuard<'static, ()>,
}

static SCENARIO_LOCK: Mutex<()> = Mutex::new(());

impl Scenario {
    /// Serializes the calling test, then arms exactly the points in `spec`.
    pub fn setup(spec: &str) -> Scenario {
        let guard = SCENARIO_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        clear();
        configure(spec).expect("invalid failpoint spec");
        Scenario { _guard: guard }
    }

    /// Re-arms mid-scenario (e.g. disarm a crash before a restart) without
    /// releasing the serialization lock.
    pub fn rearm(&self, spec: &str) {
        clear();
        configure(spec).expect("invalid failpoint spec");
    }
}

impl Drop for Scenario {
    fn drop(&mut self) {
        clear();
    }
}

/// Evaluates the failpoint `name` and acts on the result.
///
/// * `fail_point!("site")` — panic and sleep actions are honored; error and
///   torn actions are ignored (the site has no error channel).
/// * `fail_point!("site", handler)` — additionally, error and torn actions
///   `return handler(action)` from the enclosing function; the handler maps
///   the action to the site's return type (use [`injected_error`] for the
///   message so retry layers see a transient failure).
///
/// With the `failpoints` feature disabled both forms expand to an empty
/// block.
#[cfg(feature = "failpoints")]
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {{
        match $crate::eval($name) {
            Some($crate::FaultAction::Panic) => $crate::panic_now($name),
            Some($crate::FaultAction::Sleep(ms)) => $crate::sleep_now(ms),
            Some(_) | None => {}
        }
    }};
    ($name:expr, $handler:expr) => {{
        match $crate::eval($name) {
            Some($crate::FaultAction::Panic) => $crate::panic_now($name),
            Some($crate::FaultAction::Sleep(ms)) => $crate::sleep_now(ms),
            Some(action) => return ($handler)(action),
            None => {}
        }
    }};
}

/// No-op expansion: the `failpoints` feature is off, so instrumented sites
/// compile to nothing.
#[cfg(not(feature = "failpoints"))]
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {{}};
    ($name:expr, $handler:expr) => {{}};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_fires_with_default_error_action() {
        let _s = Scenario::setup("a=always");
        assert_eq!(eval("a"), Some(FaultAction::Error));
        assert_eq!(eval("a"), Some(FaultAction::Error));
        assert_eq!((evals("a"), fires("a")), (2, 2));
        assert_eq!(eval("unarmed"), None);
    }

    #[test]
    fn after_n_passes_then_fires_exactly_once() {
        let _s = Scenario::setup("a=after:2->panic");
        assert_eq!(eval("a"), None);
        assert_eq!(eval("a"), None);
        assert_eq!(eval("a"), Some(FaultAction::Panic));
        for _ in 0..10 {
            assert_eq!(eval("a"), None, "after:N must disarm once fired");
        }
        assert_eq!(fires("a"), 1);
    }

    #[test]
    fn prob_streams_are_seed_deterministic() {
        let run = |spec: &str| -> Vec<bool> {
            let _s = Scenario::setup(spec);
            (0..64).map(|_| eval("a").is_some()).collect()
        };
        let first = run("a=prob:p0.3;seed=7");
        assert_eq!(first, run("a=prob:0.3;seed=7"), "p-prefix form is equal");
        assert_ne!(first, run("a=prob:0.3;seed=8"), "seed changes the stream");
        let fired = first.iter().filter(|f| **f).count();
        assert!(
            (5..=30).contains(&fired),
            "p=0.3 over 64 draws, got {fired}"
        );
        // unseeded specs fall back to a stable per-name seed
        assert_eq!(run("a=prob:0.3"), run("a=prob:0.3"));
    }

    #[test]
    fn specs_parse_actions_options_and_reject_garbage() {
        let _s = Scenario::setup("a=never, b=always->sleep:5, c=prob:0.5;seed=1->torn");
        assert_eq!(eval("a"), None);
        assert_eq!(eval("b"), Some(FaultAction::Sleep(5)));
        assert_eq!(armed(), vec!["a", "b", "c"]);
        for bad in [
            "noequals",
            "x=sometimes",
            "x=prob:1.5",
            "x=after:many",
            "x=always->explode",
            "x=prob:0.5;jitter=2",
            "=always",
        ] {
            assert!(configure(bad).is_err(), "{bad:?} should be rejected");
        }
        // empty items are tolerated (trailing commas, unset env var)
        assert_eq!(configure("").unwrap(), 0);
    }

    #[test]
    fn transient_classification_round_trips() {
        assert!(is_transient(&injected_error("store.read")));
        assert!(injected_error("store.read").contains("store.read"));
        assert!(!is_transient("queue full"));
        assert!(is_injected_panic(&format!("{INJECTED_PANIC_MARKER} at x")));
        assert!(!is_injected_panic("index out of bounds"));
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn enabled_macro_returns_through_the_handler() {
        let _s = Scenario::setup("site=after:1");
        let call = || -> Result<u32, String> {
            fail_point!("site", |_| Err(injected_error("site")));
            Ok(7)
        };
        assert_eq!(call(), Ok(7));
        let err = call().unwrap_err();
        assert!(is_transient(&err), "{err}");
        assert_eq!(call(), Ok(7), "after:1 disarms after firing");
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn enabled_macro_panics_with_the_crash_marker() {
        let _s = Scenario::setup("site=always->panic");
        let result = std::panic::catch_unwind(|| fail_point!("site"));
        let payload = result.unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(is_injected_panic(&msg), "{msg}");
    }

    #[cfg(not(feature = "failpoints"))]
    #[test]
    fn disabled_macro_never_consults_the_registry() {
        let _s = Scenario::setup("site=always");
        let call = || -> Result<u32, String> {
            fail_point!("site", |_| Err(injected_error("site")));
            Ok(7)
        };
        assert_eq!(call(), Ok(7));
        assert_eq!(evals("site"), 0, "disabled macros must cost nothing");
    }
}
