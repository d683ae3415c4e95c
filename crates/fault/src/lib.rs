//! fsdm-fault: a catalog-checked failpoint registry for deterministic
//! fault injection.
//!
//! A failpoint is a named site in production code — `fire(FP_EXEC_MORSEL)?`
//! — that normally does nothing and can be armed by a test or a chaos
//! harness to inject a typed error, a panic, a delay, an error after N
//! clean passes, or a seeded-probability error. The design mirrors the obs
//! crate's metrics discipline:
//!
//! - **Disarmed cost is one relaxed atomic load.** `fire` reads the global
//!   `ARMED` flag and returns immediately when nothing is armed; the
//!   registry mutex is only touched while at least one point is armed.
//! - **Names come from a catalog.** Every failpoint is a
//!   [`catalog::Failpoint`] constant and only the catalog constructs one,
//!   so [`fire`] with an undeclared name does not compile; [`arm`], which
//!   takes names from tests and the environment, rejects undeclared names
//!   at runtime.
//! - **Determinism.** The probability mode draws from the in-workspace
//!   seeded `rand` stand-in, so a `(point, mode, seed)` triple replays the
//!   same hit sequence on every run — the chaos harness depends on this.
//!
//! Arming is process-global, so concurrently running tests would observe
//! each other's failpoints. [`FailScope`] serializes: it holds a private
//! static mutex for its lifetime, arms on construction, and resets the
//! whole registry on drop (even on panic-unwind, which is the common exit
//! for `Panic`-mode tests).
//!
//! `FSDM_FAILPOINTS` configures the registry from the environment (see
//! [`init_from_env`]): `name=mode` pairs separated by `;`, where mode is
//! `off`, `error`, `panic`, `delay(MS)`, `after(N)`, or `prob(P,SEED)`.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub mod catalog;

use catalog::Failpoint;

/// Global fast-path gate: true while at least one point is armed. All
/// accesses are `Relaxed` (a monotonic flag): the registry mutex, taken by
/// every writer and by every armed-path reader, provides the ordering that
/// makes the flag's value meaningful, and a stale read on the race window
/// around arming only delays injection by one call — never corrupts state.
static ARMED: AtomicBool = AtomicBool::new(false);

/// Number of times `fire` got past the disarmed fast path and consulted
/// the registry. Tier-1 tests assert this stays zero for a disarmed run.
/// A plain tally: `Relaxed`.
static HITS: AtomicU64 = AtomicU64::new(0);

/// The error a fired failpoint injects. Carries the failpoint so the
/// harness can assert *which* point produced a given typed failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultError {
    /// The failpoint that fired.
    pub point: Failpoint,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "failpoint `{}` injected error", self.point)
    }
}

impl std::error::Error for FaultError {}

/// What an armed failpoint does when its site executes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailMode {
    /// Declared but inert (arming with `Off` removes the point).
    Off,
    /// Return [`FaultError`] on every hit.
    Error,
    /// Panic with a `failpoint`-prefixed payload on every hit.
    Panic,
    /// Sleep for the given milliseconds, then succeed.
    Delay(u64),
    /// Succeed for the first N hits, then error on every later hit.
    ErrorAfter(u64),
    /// Error with probability `p` per hit, drawn from a generator seeded
    /// with `seed` at arm time.
    ErrorWithProbability(f64, u64),
}

struct PointState {
    mode: FailMode,
    hits: u64,
    rng: Option<StdRng>,
}

/// What the site must do, decided under the registry lock but acted on
/// after releasing it (a panic or sleep must not hold the lock).
enum Action {
    Proceed,
    Fail,
    Panic,
    Sleep(u64),
}

fn points() -> &'static Mutex<BTreeMap<Failpoint, PointState>> {
    static POINTS: OnceLock<Mutex<BTreeMap<Failpoint, PointState>>> = OnceLock::new();
    POINTS.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// A panic while a site sleeps or a test unwinds can poison the registry;
/// the map itself is always consistent (mutations are single assignments),
/// so recover the guard rather than propagating the poison forever. The
/// registry is a leaf lock: nothing else is locked while it is held.
#[expect(
    clippy::disallowed_methods,
    reason = "a leaf lock like `fsdm_obs::lock`, which this crate cannot depend on"
)]
fn lock_points() -> MutexGuard<'static, BTreeMap<Failpoint, PointState>> {
    points().lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Execute the failpoint `point`. Disarmed cost: one relaxed load.
///
/// Returns `Ok(())` unless the point is armed in a failing mode, in which
/// case the typed [`FaultError`] (or a panic, for [`FailMode::Panic`])
/// is injected exactly as the armed schedule dictates.
///
/// ```
/// assert!(fsdm_fault::fire(fsdm_fault::catalog::FP_EXEC_MORSEL).is_ok());
/// ```
///
/// A name the catalog does not declare is not a [`Failpoint`], so
/// neither a string literal nor a hand-made one compiles:
///
/// ```compile_fail,E0308
/// let _ = fsdm_fault::fire("exec.morsel");
/// ```
///
/// ```compile_fail,E0603
/// let _ = fsdm_fault::fire(fsdm_fault::catalog::Failpoint("planted.point"));
/// ```
#[inline]
pub fn fire(point: Failpoint) -> Result<(), FaultError> {
    if !ARMED.load(Ordering::Relaxed) {
        return Ok(());
    }
    fire_armed(point)
}

#[cold]
fn fire_armed(point: Failpoint) -> Result<(), FaultError> {
    HITS.fetch_add(1, Ordering::Relaxed);
    let action = {
        let mut reg = lock_points();
        let Some(state) = reg.get_mut(&point) else {
            return Ok(());
        };
        state.hits += 1;
        match state.mode {
            FailMode::Off => Action::Proceed,
            FailMode::Error => Action::Fail,
            FailMode::Panic => Action::Panic,
            FailMode::Delay(ms) => Action::Sleep(ms),
            FailMode::ErrorAfter(n) => {
                if state.hits > n {
                    Action::Fail
                } else {
                    Action::Proceed
                }
            }
            FailMode::ErrorWithProbability(p, seed) => {
                let rng = state.rng.get_or_insert_with(|| StdRng::seed_from_u64(seed));
                if rng.gen_range(0.0f64..1.0) < p {
                    Action::Fail
                } else {
                    Action::Proceed
                }
            }
        }
    };
    match action {
        Action::Proceed => Ok(()),
        Action::Fail => Err(FaultError { point }),
        Action::Panic => panic!("failpoint `{point}` injected panic"),
        Action::Sleep(ms) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            Ok(())
        }
    }
}

/// Arm the point named `name` in `mode`. The name must be declared in
/// [`catalog::ALL`]; arming with [`FailMode::Off`] removes the point
/// instead.
pub fn arm(name: &str, mode: FailMode) -> Result<(), String> {
    let Some(&point) = catalog::ALL.iter().find(|p| p.name() == name) else {
        return Err(format!("unknown failpoint `{name}`; declare it in fault::catalog"));
    };
    arm_point(point, mode);
    Ok(())
}

fn arm_point(point: Failpoint, mode: FailMode) {
    let mut reg = lock_points();
    if mode == FailMode::Off {
        reg.remove(&point);
    } else {
        reg.insert(point, PointState { mode, hits: 0, rng: None });
    }
    ARMED.store(!reg.is_empty(), Ordering::Relaxed);
}

/// Disarm every point and zero the registry-hit counter.
pub fn reset() {
    let mut reg = lock_points();
    reg.clear();
    ARMED.store(false, Ordering::Relaxed);
    HITS.store(0, Ordering::Relaxed);
}

/// Times `fire` consulted the registry since the last [`reset`]. A fully
/// disarmed run keeps this at zero — that is the disarmed-cost contract.
pub fn total_hits() -> u64 {
    HITS.load(Ordering::Relaxed)
}

/// Hits recorded against one armed point (None if it is not armed).
pub fn point_hits(point: Failpoint) -> Option<u64> {
    lock_points().get(&point).map(|s| s.hits)
}

fn scope_serial() -> &'static Mutex<()> {
    static SCOPE: OnceLock<Mutex<()>> = OnceLock::new();
    SCOPE.get_or_init(|| Mutex::new(()))
}

/// RAII guard for failpoint tests: serializes against every other scope in
/// the process, arms on construction, and resets the registry on drop —
/// including the panic-unwind exit a `Panic`-mode test takes.
pub struct FailScope {
    _serial: MutexGuard<'static, ()>,
}

impl FailScope {
    /// Take the scope lock, reset any leftover state, and arm one point.
    pub fn new(point: Failpoint, mode: FailMode) -> FailScope {
        let scope = FailScope::disarmed();
        arm_point(point, mode);
        scope
    }

    /// Take the scope lock without arming anything — for tests that need
    /// isolation from failpoint tests but run fully disarmed.
    #[expect(
        clippy::disallowed_methods,
        reason = "the scope lock is a serializer: held across a whole test"
    )]
    pub fn disarmed() -> FailScope {
        let serial = scope_serial().lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        reset();
        FailScope { _serial: serial }
    }

    /// Arm an additional point under the same scope.
    pub fn also(&self, point: Failpoint, mode: FailMode) {
        arm_point(point, mode);
    }
}

impl Drop for FailScope {
    fn drop(&mut self) {
        reset();
    }
}

/// Parse one `FSDM_FAILPOINTS` mode token.
fn parse_mode(spec: &str) -> Result<FailMode, String> {
    let spec = spec.trim();
    let call = |prefix: &str| -> Option<&str> {
        spec.strip_prefix(prefix).and_then(|rest| rest.strip_prefix('(')).and_then(|rest| {
            let rest = rest.strip_suffix(')')?;
            Some(rest.trim())
        })
    };
    match spec {
        "off" => return Ok(FailMode::Off),
        "error" => return Ok(FailMode::Error),
        "panic" => return Ok(FailMode::Panic),
        _ => {}
    }
    if let Some(ms) = call("delay") {
        let ms = ms.parse::<u64>().map_err(|_| format!("delay wants milliseconds, got `{ms}`"))?;
        return Ok(FailMode::Delay(ms));
    }
    if let Some(n) = call("after") {
        let n = n.parse::<u64>().map_err(|_| format!("after wants a hit count, got `{n}`"))?;
        return Ok(FailMode::ErrorAfter(n));
    }
    if let Some(args) = call("prob") {
        let (p, seed) = args
            .split_once(',')
            .ok_or_else(|| format!("prob wants `prob(P,SEED)`, got `prob({args})`"))?;
        let p = p
            .trim()
            .parse::<f64>()
            .map_err(|_| format!("prob wants a probability, got `{}`", p.trim()))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("probability {p} is outside [0, 1]"));
        }
        let seed = seed
            .trim()
            .parse::<u64>()
            .map_err(|_| format!("prob wants a u64 seed, got `{}`", seed.trim()))?;
        return Ok(FailMode::ErrorWithProbability(p, seed));
    }
    Err(format!("unknown failpoint mode `{spec}`"))
}

/// Arm failpoints from the `FSDM_FAILPOINTS` environment variable:
/// `name=mode` pairs separated by `;` (for example
/// `exec.morsel=error;exec.join.build=prob(0.5,42)`). Returns the number
/// of points armed; an unset or empty variable arms nothing.
pub fn init_from_env() -> Result<usize, String> {
    let Ok(spec) = std::env::var("FSDM_FAILPOINTS") else {
        return Ok(0);
    };
    let mut armed = 0;
    for pair in spec.split(';').map(str::trim).filter(|p| !p.is_empty()) {
        let (name, mode) =
            pair.split_once('=').ok_or_else(|| format!("expected name=mode, got `{pair}`"))?;
        arm(name.trim(), parse_mode(mode)?)?;
        armed += 1;
    }
    Ok(armed)
}

/// Install a process-wide panic hook that swallows the default backtrace
/// print for `failpoint`-injected panics (they are expected and caught by
/// the executor) while forwarding every other panic to the previous hook.
/// Idempotent; intended for the chaos harness and failpoint tests.
pub fn silence_failpoint_panics() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    if INSTALLED.set(()).is_err() {
        return;
    }
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        if message.is_some_and(|m| m.starts_with("failpoint `")) {
            return;
        }
        previous(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_fire_is_free_and_unhit() {
        let _scope = FailScope::disarmed();
        for _ in 0..100 {
            assert_eq!(fire(catalog::FP_EXEC_MORSEL), Ok(()));
        }
        assert_eq!(total_hits(), 0);
    }

    #[test]
    fn error_mode_injects_a_typed_error() {
        let scope = FailScope::new(catalog::FP_EXEC_JOIN_BUILD, FailMode::Error);
        let err = fire(catalog::FP_EXEC_JOIN_BUILD).unwrap_err();
        assert_eq!(err.point, catalog::FP_EXEC_JOIN_BUILD);
        assert_eq!(err.to_string(), "failpoint `exec.join.build` injected error");
        // Other points pass, but the armed-path counter sees them.
        assert_eq!(fire(catalog::FP_EXEC_MORSEL), Ok(()));
        assert_eq!(point_hits(catalog::FP_EXEC_JOIN_BUILD), Some(1));
        drop(scope);
        assert_eq!(total_hits(), 0);
    }

    #[test]
    fn after_n_passes_then_fails() {
        let _scope = FailScope::new(catalog::FP_EXEC_SORT_PERMUTE, FailMode::ErrorAfter(3));
        for _ in 0..3 {
            assert_eq!(fire(catalog::FP_EXEC_SORT_PERMUTE), Ok(()));
        }
        assert!(fire(catalog::FP_EXEC_SORT_PERMUTE).is_err());
        assert!(fire(catalog::FP_EXEC_SORT_PERMUTE).is_err());
    }

    #[test]
    fn probability_mode_is_seed_deterministic() {
        let draw = |seed: u64| -> Vec<bool> {
            let _scope =
                FailScope::new(catalog::FP_EXPR_EVAL, FailMode::ErrorWithProbability(0.5, seed));
            (0..32).map(|_| fire(catalog::FP_EXPR_EVAL).is_err()).collect()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8), "distinct seeds should give distinct hit sequences");
        let hits = draw(7).iter().filter(|&&h| h).count();
        assert!((4..=28).contains(&hits), "p=0.5 over 32 draws hit {hits} times");
    }

    #[test]
    fn panic_mode_panics_with_the_failpoint_payload() {
        let _scope = FailScope::new(catalog::FP_VECTOR_BATCH, FailMode::Panic);
        #[expect(clippy::disallowed_methods, reason = "the panic mode is what this test observes")]
        let caught = std::panic::catch_unwind(|| fire(catalog::FP_VECTOR_BATCH)).unwrap_err();
        let msg = caught.downcast_ref::<String>().expect("string payload");
        assert_eq!(msg, "failpoint `vector.batch` injected panic");
    }

    #[test]
    fn arming_an_uncataloged_name_is_rejected() {
        let _scope = FailScope::disarmed();
        let err = arm("exec.nonsense", FailMode::Error).unwrap_err();
        assert!(err.contains("unknown failpoint"), "{err}");
        assert_eq!(fire(catalog::FP_EXEC_MORSEL), Ok(()));
    }

    #[test]
    fn mode_specs_parse() {
        assert_eq!(parse_mode("off"), Ok(FailMode::Off));
        assert_eq!(parse_mode("error"), Ok(FailMode::Error));
        assert_eq!(parse_mode("panic"), Ok(FailMode::Panic));
        assert_eq!(parse_mode("delay(25)"), Ok(FailMode::Delay(25)));
        assert_eq!(parse_mode("after(4)"), Ok(FailMode::ErrorAfter(4)));
        assert_eq!(parse_mode("prob(0.25, 99)"), Ok(FailMode::ErrorWithProbability(0.25, 99)));
        assert!(parse_mode("maybe").is_err());
        assert!(parse_mode("prob(1.5,1)").is_err());
        assert!(parse_mode("delay(soon)").is_err());
    }

    #[test]
    fn delay_mode_sleeps_then_succeeds() {
        let _scope = FailScope::new(catalog::FP_EXEC_JSONTABLE_ROW, FailMode::Delay(5));
        let t0 = std::time::Instant::now();
        assert_eq!(fire(catalog::FP_EXEC_JSONTABLE_ROW), Ok(()));
        assert!(t0.elapsed() >= std::time::Duration::from_millis(5));
    }
}
