//! `stp-faultsim`: compile-time-free failpoint injection.
//!
//! Fault-tolerance claims are only as good as the faults you can
//! actually produce. This crate lets the synthesis pipeline seed named
//! *failpoints* — `fail_point!("store.save.pre_rename")` — at the exact
//! code locations where a crash, an error return, or a stall would be
//! most damaging, and then drive them from tests or from the
//! environment without touching production behaviour:
//!
//! * **Zero cost when off.** The [`fail_point!`] macros expand to
//!   *nothing* unless the defining crate's `enabled` cargo feature is
//!   on (consumer crates forward it as their own `faultsim` feature).
//!   No branch, no atomic, no string — release binaries are unchanged.
//! * **Deterministic triggers.** A spec can fire on every hit
//!   (`panic`) or exactly on the *n*-th hit (`3:panic`), and call sites
//!   may supply an explicit hit index (e.g. a shape index) so the
//!   trigger is deterministic at any worker count, whichever worker
//!   claims the task.
//! * **Two control surfaces.** Programmatic ([`set`] / [`remove`] /
//!   [`clear_all`]) for tests, and the `STP_FAILPOINTS` environment
//!   variable (`name=spec;name2=spec2`) for whole-binary runs.
//! * **Observable.** Every triggered action bumps the global telemetry
//!   counter `faultsim.hits`; per-point evaluation and trip tallies are
//!   readable via [`evaluations`] and [`trips`].
//!
//! # Spec grammar
//!
//! ```text
//! spec    := [nth ":"] action
//! action  := "panic" | "abort" | "err" | "return" | "off" | "sleep:" millis
//! nth     := 1-based decimal hit index (fires once, then disarms)
//! ```
//!
//! `err` and `return` both *divert*: a `fail_point!(name, err = expr)`
//! call site early-returns `expr`. `panic` unwinds with a message
//! naming the point; `abort` kills the whole process on the spot (a
//! true kill window — no unwinding, no destructors, no flushes);
//! `sleep:ms` stalls the hit and continues; `off` disarms without
//! removing the point.
//!
//! # Example
//!
//! ```
//! use stp_faultsim as fp;
//! let _serial = fp::test_guard(); // failpoints are process-global
//! fp::clear_all();
//! fp::set("demo.point", "2:err").unwrap();
//! assert!(!fp::eval("demo.point", None)); // hit 1: armed for hit 2
//! assert!(fp::eval("demo.point", None)); // hit 2: diverts…
//! assert!(!fp::eval("demo.point", None)); // …then disarms
//! assert_eq!(fp::trips("demo.point"), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// What a triggered failpoint does at the instrumented site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Unwind with a panic naming the failpoint — the stand-in for a
    /// crashed worker or a killed process (tests pair it with
    /// `catch_unwind`).
    Panic,
    /// Kill the process immediately via [`std::process::abort`] — the
    /// honest simulation of `kill -9` or a power cut. Unlike
    /// [`Action::Panic`] nothing unwinds: no destructors run, no
    /// buffers flush, no `catch_unwind` can intercept it. Crash-window
    /// tests arm this in a *child* process and assert on what the
    /// survivor finds on disk.
    Abort,
    /// Divert: `fail_point!(name, err = expr)` sites early-return their
    /// `expr`. Plain `fail_point!(name)` sites just count the trip.
    Err,
    /// Synonym of [`Action::Err`] (the spec grammar accepts both).
    Return,
    /// Stall the hit for the given number of milliseconds, then
    /// continue normally — for exercising timeout and contention paths.
    Sleep(u64),
    /// Armed but inert: evaluations are counted, nothing triggers.
    Off,
}

/// A malformed failpoint spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// The spec that failed to parse.
    pub spec: String,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad failpoint spec `{}`: {}", self.spec, self.message)
    }
}

impl Error for SpecError {}

/// An armed trigger: fire on every hit (`nth: None`) or exactly on the
/// `nth` hit (1-based, one-shot: the trigger disarms after firing).
#[derive(Debug, Clone, Copy)]
struct Trigger {
    nth: Option<u64>,
    action: Action,
}

/// One named failpoint: its (optional) trigger plus lifetime tallies.
/// Points are leaked into the registry so evaluation never races a
/// removal; tallies survive `clear_all` on purpose (tests read them
/// after disarming).
#[derive(Debug, Default)]
struct Point {
    trigger: Mutex<Option<Trigger>>,
    evals: AtomicU64,
    trips: AtomicU64,
}

struct Registry {
    points: Mutex<HashMap<String, &'static Point>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let reg = Registry { points: Mutex::new(HashMap::new()) };
        if let Ok(env) = std::env::var("STP_FAILPOINTS") {
            if let Err(e) = apply_env(&reg, &env) {
                // A typo in the env var must be loud, not silent: the
                // whole point of the variable is injecting faults.
                stp_telemetry::error!("STP_FAILPOINTS ignored: {e}");
            }
        }
        reg
    })
}

fn point(name: &str) -> &'static Point {
    let mut points = registry().points.lock().unwrap_or_else(|e| e.into_inner());
    points.entry(name.to_string()).or_insert_with(|| Box::leak(Box::default()))
}

/// Parses `STP_FAILPOINTS`-style `name=spec[;name=spec…]` into `reg`.
fn apply_env(reg: &Registry, env: &str) -> Result<(), SpecError> {
    for clause in env.split(';').map(str::trim).filter(|c| !c.is_empty()) {
        let Some((name, spec)) = clause.split_once('=') else {
            return Err(SpecError {
                spec: clause.to_string(),
                message: "expected `name=spec`".to_string(),
            });
        };
        let trigger = parse_spec(spec.trim())?;
        let mut points = reg.points.lock().unwrap_or_else(|e| e.into_inner());
        let p = points.entry(name.trim().to_string()).or_insert_with(|| Box::leak(Box::default()));
        *p.trigger.lock().unwrap_or_else(|e| e.into_inner()) = Some(trigger);
    }
    Ok(())
}

fn parse_spec(spec: &str) -> Result<Trigger, SpecError> {
    let bad = |message: &str| SpecError { spec: spec.to_string(), message: message.to_string() };
    // An all-digit prefix before the first `:` is the hit index; this
    // cannot collide with `sleep:ms` because `sleep` is not numeric.
    let (nth, action) = match spec.split_once(':') {
        Some((pre, rest)) if !pre.is_empty() && pre.bytes().all(|b| b.is_ascii_digit()) => {
            let n: u64 = pre.parse().map_err(|_| bad("hit index out of range"))?;
            if n == 0 {
                return Err(bad("hit index is 1-based; `0:` can never fire"));
            }
            (Some(n), rest)
        }
        _ => (None, spec),
    };
    let action = match action {
        "panic" => Action::Panic,
        "abort" => Action::Abort,
        "err" => Action::Err,
        "return" => Action::Return,
        "off" => Action::Off,
        other => match other.strip_prefix("sleep:") {
            Some(ms) => Action::Sleep(ms.parse().map_err(|_| bad("bad sleep milliseconds"))?),
            None => return Err(bad("expected panic|abort|err|return|off|sleep:<ms>")),
        },
    };
    Ok(Trigger { nth, action })
}

/// Arms the failpoint `name` with `spec` (see the crate docs for the
/// grammar). Replaces any existing trigger.
///
/// # Errors
///
/// [`SpecError`] when the spec does not parse.
pub fn set(name: &str, spec: &str) -> Result<(), SpecError> {
    let trigger = parse_spec(spec)?;
    *point(name).trigger.lock().unwrap_or_else(|e| e.into_inner()) = Some(trigger);
    Ok(())
}

/// Disarms the failpoint `name` (its tallies are kept).
pub fn remove(name: &str) {
    let points = registry().points.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(p) = points.get(name) {
        *p.trigger.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }
}

/// Disarms every failpoint. Call at the start of each fault-injection
/// test (under [`test_guard`]) so triggers never leak across tests.
pub fn clear_all() {
    let points = registry().points.lock().unwrap_or_else(|e| e.into_inner());
    for p in points.values() {
        *p.trigger.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }
}

/// Times the failpoint `name` was evaluated (triggered or not).
pub fn evaluations(name: &str) -> u64 {
    point(name).evals.load(Ordering::Relaxed)
}

/// Times the failpoint `name` actually triggered an action.
pub fn trips(name: &str) -> u64 {
    point(name).trips.load(Ordering::Relaxed)
}

/// Serializes fault-injection tests: failpoints are process-global, so
/// concurrent tests arming different triggers would interfere. The
/// guard is panic-tolerant (a poisoned mutex is taken over, since
/// panicking *is* what fault tests do).
pub fn test_guard() -> MutexGuard<'static, ()> {
    static TEST_MUTEX: Mutex<()> = Mutex::new(());
    TEST_MUTEX.lock().unwrap_or_else(|e| e.into_inner())
}

/// Evaluates the failpoint `name`: the engine behind [`fail_point!`].
///
/// `explicit_hit` supplies a caller-chosen 1-based hit index (so
/// `N:`-triggers stay deterministic under parallelism); `None` uses the
/// point's own evaluation counter. Returns `true` when the armed action
/// asks the call site to **divert** (an `err`/`return` trigger);
/// `panic` unwinds instead of returning and `sleep` stalls then returns
/// `false`.
pub fn eval(name: &str, explicit_hit: Option<u64>) -> bool {
    let p = point(name);
    let seq = p.evals.fetch_add(1, Ordering::Relaxed) + 1;
    let hit = explicit_hit.unwrap_or(seq);
    let action = {
        let mut trigger = p.trigger.lock().unwrap_or_else(|e| e.into_inner());
        match *trigger {
            None => return false,
            Some(Trigger { nth: Some(n), .. }) if n != hit => return false,
            Some(Trigger { nth: Some(_), action }) => {
                // One-shot: an exact-hit trigger disarms after firing.
                *trigger = None;
                action
            }
            Some(Trigger { nth: None, action }) => action,
        }
    };
    if action == Action::Off {
        return false;
    }
    p.trips.fetch_add(1, Ordering::Relaxed);
    stp_telemetry::counter!("faultsim.hits").inc();
    stp_telemetry::warn!("failpoint `{name}` triggered ({action:?}, hit {hit})");
    match action {
        Action::Panic => panic!("failpoint `{name}` triggered (hit {hit})"),
        Action::Abort => std::process::abort(),
        Action::Sleep(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            false
        }
        Action::Err | Action::Return => true,
        Action::Off => unreachable!("handled above"),
    }
}

/// Declares a failpoint. With the `enabled` feature off this expands to
/// nothing; with it on, the point is evaluated against the registry.
///
/// Forms:
///
/// * `fail_point!("name")` — count the hit; `panic`/`sleep` triggers
///   act, divert triggers merely count a trip.
/// * `fail_point!("name", hit = expr)` — like the above with an
///   explicit 1-based hit index (deterministic under parallelism).
/// * `fail_point!("name", err = expr)` — a divert trigger makes the
///   enclosing function `return expr;`.
/// * `fail_point!("name", hit = expr, err = expr)` — both.
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {
        let _ = $crate::eval($name, ::core::option::Option::None);
    };
    ($name:expr, hit = $hit:expr) => {
        let _ = $crate::eval($name, ::core::option::Option::Some($hit));
    };
    ($name:expr, err = $ret:expr) => {
        if $crate::eval($name, ::core::option::Option::None) {
            return $ret;
        }
    };
    ($name:expr, hit = $hit:expr, err = $ret:expr) => {
        if $crate::eval($name, ::core::option::Option::Some($hit)) {
            return $ret;
        }
    };
}

/// Declares a failpoint. With the `enabled` feature off this expands to
/// nothing; with it on, the point is evaluated against the registry.
/// (See the feature-on docs for the accepted forms.)
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {};
    ($name:expr, hit = $hit:expr) => {};
    ($name:expr, err = $ret:expr) => {};
    ($name:expr, hit = $hit:expr, err = $ret:expr) => {};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_grammar_parses() {
        assert!(matches!(
            parse_spec("panic").unwrap(),
            Trigger { nth: None, action: Action::Panic }
        ));
        assert!(matches!(parse_spec("err").unwrap(), Trigger { nth: None, action: Action::Err }));
        assert!(matches!(
            parse_spec("return").unwrap(),
            Trigger { nth: None, action: Action::Return }
        ));
        assert!(matches!(parse_spec("off").unwrap(), Trigger { nth: None, action: Action::Off }));
        assert!(matches!(
            parse_spec("abort").unwrap(),
            Trigger { nth: None, action: Action::Abort }
        ));
        assert!(matches!(
            parse_spec("4:abort").unwrap(),
            Trigger { nth: Some(4), action: Action::Abort }
        ));
        assert!(matches!(
            parse_spec("sleep:250").unwrap(),
            Trigger { nth: None, action: Action::Sleep(250) }
        ));
        assert!(matches!(
            parse_spec("3:panic").unwrap(),
            Trigger { nth: Some(3), action: Action::Panic }
        ));
        assert!(matches!(
            parse_spec("2:sleep:10").unwrap(),
            Trigger { nth: Some(2), action: Action::Sleep(10) }
        ));
    }

    #[test]
    fn bad_specs_are_rejected() {
        for spec in ["", "explode", "0:panic", "sleep:", "sleep:abc", "x:panic", ":panic"] {
            assert!(parse_spec(spec).is_err(), "spec `{spec}` should not parse");
        }
    }

    #[test]
    fn every_hit_trigger_fires_until_removed() {
        let _serial = test_guard();
        clear_all();
        set("t.every", "err").unwrap();
        assert!(eval("t.every", None));
        assert!(eval("t.every", None));
        remove("t.every");
        assert!(!eval("t.every", None));
        assert_eq!(trips("t.every"), 2);
    }

    #[test]
    fn nth_hit_trigger_is_one_shot() {
        let _serial = test_guard();
        clear_all();
        set("t.nth", "2:err").unwrap();
        assert!(!eval("t.nth", None), "hit 1 must not fire");
        assert!(eval("t.nth", None), "hit 2 must fire");
        assert!(!eval("t.nth", None), "trigger disarms after firing");
        assert_eq!(trips("t.nth"), 1);
        assert!(evaluations("t.nth") >= 3);
    }

    #[test]
    fn explicit_hit_index_overrides_the_internal_counter() {
        let _serial = test_guard();
        clear_all();
        set("t.explicit", "7:err").unwrap();
        assert!(!eval("t.explicit", Some(3)));
        assert!(eval("t.explicit", Some(7)));
        assert!(!eval("t.explicit", Some(7)), "one-shot even with explicit hits");
    }

    #[test]
    fn panic_action_unwinds_with_the_point_name() {
        let _serial = test_guard();
        clear_all();
        set("t.panic", "panic").unwrap();
        let err = std::panic::catch_unwind(|| eval("t.panic", None)).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("t.panic"), "panic message `{msg}` must name the point");
        clear_all();
    }

    #[test]
    fn sleep_action_stalls_then_continues() {
        let _serial = test_guard();
        clear_all();
        set("t.sleep", "sleep:30").unwrap();
        let start = std::time::Instant::now();
        assert!(!eval("t.sleep", None), "sleep continues normally");
        assert!(start.elapsed() >= Duration::from_millis(25));
        clear_all();
    }

    #[test]
    fn off_action_counts_evaluations_but_never_trips() {
        let _serial = test_guard();
        clear_all();
        set("t.off", "off").unwrap();
        let trips_before = trips("t.off");
        assert!(!eval("t.off", None));
        assert_eq!(trips("t.off"), trips_before);
    }

    #[test]
    fn env_grammar_arms_multiple_points() {
        let _serial = test_guard();
        clear_all();
        let reg = registry();
        apply_env(reg, "t.env.a=err; t.env.b=2:return").unwrap();
        assert!(eval("t.env.a", None));
        assert!(!eval("t.env.b", Some(1)));
        assert!(eval("t.env.b", Some(2)));
        assert!(apply_env(reg, "missing-equals").is_err());
        assert!(apply_env(reg, "t.env.c=bogus").is_err());
        clear_all();
    }
}
