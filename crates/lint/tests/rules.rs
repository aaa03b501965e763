//! Per-rule unit tests: for each file-scoped rule a positive case
//! (violation reported), a negative case (clean code passes), and a
//! suppressed case (reasoned `lint:allow` silences it), plus the
//! suppression-hygiene diagnostics themselves. The workspace-level
//! wire-schema rule is covered in `fixtures.rs` and `schema.rs`.

use marauder_lint::config::Config;
use marauder_lint::engine::lint_source;
use marauder_lint::{Diagnostic, Severity};

/// Lints `src` as if it were the given workspace-relative file, with
/// the repo's real `lint.toml` scoping.
fn lint(rel: &str, src: &str) -> Vec<Diagnostic> {
    let toml = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../lint.toml"),
    )
    .expect("workspace lint.toml");
    let config = Config::parse(&toml).expect("workspace lint.toml parses");
    lint_source(rel, src, &config)
}

fn rules_of(diags: &[Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.rule.as_str()).collect()
}

// ---------------------------------------------------------------- hash

#[test]
fn hash_iteration_positive() {
    let src = r#"
use std::collections::HashMap;
struct S { counts: HashMap<u32, u32> }
impl S {
    fn dump(&self) -> Vec<u32> {
        self.counts.values().copied().collect()
    }
    fn walk(&self) {
        for k in &self.counts { let _ = k; }
    }
}
"#;
    let diags = lint("crates/core/src/x.rs", src);
    assert_eq!(rules_of(&diags), vec!["no-hash-iteration"; 2], "{diags:?}");
}

#[test]
fn hash_iteration_negative() {
    // Lookups are fine; sorted drains are fine; BTreeMap is fine; and
    // the same code in an out-of-scope crate (wifi) is fine.
    let clean = r#"
use std::collections::{BTreeMap, HashMap};
struct S { counts: HashMap<u32, u32>, ordered: BTreeMap<u32, u32> }
impl S {
    fn get(&self) -> Option<u32> { self.counts.get(&1).copied() }
    fn sorted(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.counts.keys().copied().collect::<BTreeSet<_>>().into_iter().collect();
        v.sort();
        v
    }
    fn walk(&self) { for k in &self.ordered { let _ = k; } }
}
"#;
    assert!(lint("crates/core/src/x.rs", clean).is_empty());
    let hashy = "use std::collections::HashMap;\nfn f(m: HashMap<u8,u8>) -> Vec<u8> { m.values().copied().collect() }";
    assert!(lint("crates/wifi/src/x.rs", hashy).is_empty());
}

#[test]
fn hash_iteration_suppressed() {
    let src = r#"
use std::collections::HashMap;
fn f(m: HashMap<u8, u8>) -> usize {
    // lint:allow(no-hash-iteration) -- count is order-independent
    m.values().count()
}
"#;
    assert!(lint("crates/core/src/x.rs", src).is_empty());
}

// ---------------------------------------------------------- wall clock

#[test]
fn wall_clock_positive() {
    let src = "use std::time::Instant;\nfn f() { let _t = Instant::now(); }";
    let diags = lint("crates/stream/src/engine.rs", src);
    assert_eq!(rules_of(&diags), vec!["no-wall-clock"]);
    let sys = "fn f() { let _ = std::time::SystemTime::now(); }";
    assert_eq!(
        rules_of(&lint("crates/core/src/x.rs", sys)),
        vec!["no-wall-clock"]
    );
}

#[test]
fn wall_clock_allowed_paths_and_tests() {
    let src = "use std::time::Instant;\nfn f() { let _t = Instant::now(); }";
    // CLI binaries, bench crate and the replay pacing module may pace
    // on the host clock.
    assert!(lint("src/bin/marauder.rs", src).is_empty());
    assert!(lint("crates/bench/src/common.rs", src).is_empty());
    assert!(lint("crates/stream/src/replay.rs", src).is_empty());
    // Test regions may time themselves.
    let test_src = "#[cfg(test)]\nmod tests {\n fn t() { let _ = std::time::Instant::now(); }\n}";
    assert!(lint("crates/core/src/x.rs", test_src).is_empty());
}

#[test]
fn wall_clock_suppressed() {
    let src = "fn f() { let _t = std::time::Instant::now(); } // lint:allow(no-wall-clock) -- progress display only";
    assert!(lint("crates/core/src/x.rs", src).is_empty());
}

// ------------------------------------------------------------- entropy

#[test]
fn entropy_positive() {
    for src in [
        "fn f() { let r = rand::thread_rng(); }",
        "fn f() { let r = StdRng::from_entropy(); }",
        "fn f() -> u64 { rand::random() }",
    ] {
        assert_eq!(
            rules_of(&lint("crates/sim/src/x.rs", src)),
            vec!["no-unseeded-entropy"],
            "{src}"
        );
    }
}

#[test]
fn entropy_applies_in_tests_too() {
    // A test drawing OS entropy is a flaky test.
    let src = "#[cfg(test)]\nmod tests {\n fn t() { let r = rand::thread_rng(); }\n}";
    assert_eq!(
        rules_of(&lint("crates/sim/src/x.rs", src)),
        vec!["no-unseeded-entropy"]
    );
}

#[test]
fn entropy_negative_and_suppressed() {
    let seeded =
        "fn f(seed: u64) { let r = StdRng::seed_from_u64(seed); let s = sub_seed(seed, 3); }";
    assert!(lint("crates/sim/src/x.rs", seeded).is_empty());
    // `random` not under the `rand::` path is someone's own function.
    assert!(lint("crates/sim/src/x.rs", "fn f() { my::random(); }").is_empty());
    let sup =
        "fn f() { let r = rand::thread_rng(); } // lint:allow(no-unseeded-entropy) -- demo binary";
    assert!(lint("crates/sim/src/x.rs", sup).is_empty());
}

// --------------------------------------------------------------- panic

#[test]
fn panic_positive() {
    let src = r#"
fn f(x: Option<u8>) -> u8 { x.unwrap() }
fn g(x: Option<u8>) -> u8 { x.expect("msg") }
fn h() { panic!("boom"); }
fn i() { todo!() }
"#;
    let diags = lint("crates/geo/src/x.rs", src);
    assert_eq!(rules_of(&diags), vec!["no-panic-in-lib"; 4], "{diags:?}");
}

#[test]
fn panic_negative() {
    // Result propagation, defaults, and non-lib locations are clean.
    let clean = r#"
fn f(x: Option<u8>) -> Option<u8> { let v = x?; Some(v) }
fn g(x: Option<u8>) -> u8 { x.unwrap_or(0) }
fn h(a: f64, b: f64) -> std::cmp::Ordering { a.total_cmp(&b) }
"#;
    assert!(lint("crates/geo/src/x.rs", clean).is_empty());
    let panicky = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
    // Binaries, tests directories and #[test] fns may panic.
    assert!(lint("src/bin/marauder.rs", panicky).is_empty());
    assert!(lint("tests/cli.rs", panicky).is_empty());
    assert!(lint("crates/bench/src/common.rs", panicky).is_empty());
    let in_test = "#[test]\nfn t() { Some(1).unwrap(); }";
    assert!(lint("crates/geo/src/x.rs", in_test).is_empty());
    // Mentions in strings/comments are not calls.
    let texty = "fn f() -> &'static str { \"call .unwrap() or panic!\" } // unwrap() here too";
    assert!(lint("crates/geo/src/x.rs", texty).is_empty());
}

#[test]
fn panic_suppressed() {
    let src = r#"
fn f(x: Option<u8>) -> u8 {
    // lint:allow(no-panic-in-lib) -- x is Some by construction
    x.unwrap()
}
"#;
    assert!(lint("crates/geo/src/x.rs", src).is_empty());
}

// ------------------------------------------------------------ float eq

#[test]
fn float_eq_positive() {
    for src in [
        "fn f(x: f64) -> bool { x == 0.0 }",
        "fn f(x: f64) -> bool { 1.5 != x }",
        "fn f(x: f64) -> bool { x == -1.0 }",
        "fn f(x: f64) -> bool { x == f64::INFINITY }",
    ] {
        assert_eq!(
            rules_of(&lint("crates/geo/src/x.rs", src)),
            vec!["no-float-eq"],
            "{src}"
        );
    }
}

#[test]
fn float_eq_negative() {
    let clean = r#"
fn f(x: f64) -> bool { (x - 0.5).abs() < 1e-9 }
fn g(n: u32) -> bool { n == 0 }
fn h(x: f64, y: f64) -> bool { x.to_bits() == y.to_bits() }
"#;
    assert!(lint("crates/geo/src/x.rs", clean).is_empty());
    // The snapshot codec is a designated bit-exact module.
    let exact = "fn f(x: f64) -> bool { x == 1.0 }";
    assert!(lint("crates/stream/src/snapshot.rs", exact).is_empty());
    // Equivalence tests compare exactly on purpose.
    let in_test = "#[cfg(test)]\nmod t {\n fn c(x: f64) -> bool { x == 1.0 }\n}";
    assert!(lint("crates/geo/src/x.rs", in_test).is_empty());
}

#[test]
fn float_eq_suppressed() {
    let src = "fn f(r: f64) -> bool { r == 0.0 } // lint:allow(no-float-eq) -- exact sentinel";
    assert!(lint("crates/geo/src/x.rs", src).is_empty());
}

// -------------------------------------------------------------- unsafe

#[test]
fn forbid_unsafe_positive() {
    // Missing crate-root attribute.
    let diags = lint("crates/geo/src/lib.rs", "//! docs\npub fn f() {}");
    assert_eq!(rules_of(&diags), vec!["forbid-unsafe"]);
    // `unsafe` outside the allowed crates.
    let diags = lint(
        "crates/geo/src/x.rs",
        "fn f(p: *const u8) -> u8 { unsafe { *p } }",
    );
    assert_eq!(rules_of(&diags), vec!["forbid-unsafe"]);
    // `unsafe` in `par` without a SAFETY comment.
    let diags = lint(
        "crates/par/src/lib.rs",
        "fn f(p: *const u8) -> u8 { unsafe { *p } }",
    );
    assert_eq!(rules_of(&diags), vec!["forbid-unsafe"]);
}

#[test]
fn forbid_unsafe_negative() {
    let root = "//! docs\n#![forbid(unsafe_code)]\npub fn f() {}";
    assert!(lint("crates/geo/src/lib.rs", root).is_empty());
    // `par` may hold unsafe under a SAFETY comment.
    let audited = r#"
// SAFETY: p is non-null and valid for reads by the caller's contract.
fn f(p: *const u8) -> u8 { unsafe { *p } }
"#;
    assert!(lint("crates/par/src/x.rs", audited).is_empty());
    // Non-crate-root files do not need the attribute.
    assert!(lint("crates/geo/src/x.rs", "pub fn f() {}").is_empty());
}

#[test]
fn forbid_unsafe_has_no_suppression_for_missing_attr() {
    // The attribute check reports at line 1; a suppression there would
    // target line 2, so the only way to pass is to add the attribute.
    let src = "// lint:allow(forbid-unsafe) -- nope\npub fn f() {}";
    let diags = lint("crates/geo/src/lib.rs", src);
    assert!(diags.iter().any(|d| d.rule == "forbid-unsafe"));
}

// -------------------------------------------------- suppression hygiene

#[test]
fn stale_suppression_is_reported() {
    let src = "// lint:allow(no-wall-clock) -- leftover\nfn f() { let x = 1; }";
    let diags = lint("crates/core/src/x.rs", src);
    assert_eq!(rules_of(&diags), vec!["stale-suppression"]);
    assert_eq!(diags[0].severity, Severity::Warning);
}

#[test]
fn reasonless_or_unknown_suppression_is_an_error() {
    let src = "fn f() { let _ = std::time::Instant::now(); } // lint:allow(no-wall-clock)";
    let diags = lint("crates/core/src/x.rs", src);
    // Not honored: both the violation and the bad suppression surface
    // (sorted by column within the line).
    assert_eq!(
        rules_of(&diags),
        vec!["no-wall-clock", "bad-suppression"],
        "{diags:?}"
    );
    let unknown = "fn f() {} // lint:allow(no-such-rule) -- whatever";
    assert_eq!(
        rules_of(&lint("crates/core/src/x.rs", unknown)),
        vec!["bad-suppression"]
    );
}

#[test]
fn one_suppression_covers_one_line_only() {
    let src = r#"
fn f(a: Option<u8>, b: Option<u8>) -> u8 {
    // lint:allow(no-panic-in-lib) -- a is Some by construction
    let x = a.unwrap();
    let y = b.unwrap();
    x + y
}
"#;
    let diags = lint("crates/geo/src/x.rs", src);
    assert_eq!(rules_of(&diags), vec!["no-panic-in-lib"]);
    assert_eq!(diags[0].line, 5);
}

// ------------------------------------------------- determinism-taint

#[test]
fn determinism_taint_positive() {
    // The clock value flows through a let-chain into a report sink.
    // `crates/bench/` is a no-wall-clock allow-path, so only the flow
    // fires — reading the clock alone is permitted there.
    let src = r#"
use std::time::Instant;
fn stamp_report(out: &mut String) {
    let t0 = Instant::now();
    let elapsed = t0.elapsed();
    let line = format!("{:?}", elapsed);
    out.push_str(&line);
}
"#;
    let diags = lint("crates/bench/src/x.rs", src);
    assert_eq!(rules_of(&diags), vec!["determinism-taint"], "{diags:?}");
    assert_eq!(diags[0].line, 7, "reported at the sink: {diags:?}");
}

#[test]
fn determinism_taint_reaches_the_json_writer() {
    // A report rendered through `obs::json::Writer` is a sink like any
    // `push_str`: an `elapsed` reading written into it is flagged in a
    // library crate outside every no-wall-clock allow-path.
    let src = r#"
use marauder_obs::json::{Layout, Writer};
use std::time::Instant;
fn report(start: Instant) -> String {
    let secs = start.elapsed().as_secs_f64();
    let mut w = Writer::new();
    w.object(Layout::Block);
    w.key("wall_s").f64(secs);
    w.end();
    w.finish()
}
"#;
    let diags = lint("crates/fault/src/x.rs", src);
    assert_eq!(rules_of(&diags), vec!["determinism-taint"], "{diags:?}");
    assert_eq!(diags[0].line, 8, "reported at the sink: {diags:?}");
}

#[test]
fn determinism_taint_hash_order_source() {
    // Hash-map iteration order is a taint source even in crates outside
    // no-hash-iteration's scope (bench is not in its crate list).
    let src = r#"
use std::collections::HashMap;
fn dump(counts: &HashMap<u32, u32>, out: &mut String) {
    let vals: Vec<u32> = counts.values().copied().collect();
    out.push_str(&format!("{:?}", vals));
}
"#;
    let diags = lint("crates/bench/src/x.rs", src);
    assert_eq!(rules_of(&diags), vec!["determinism-taint"], "{diags:?}");
}

#[test]
fn determinism_taint_negative() {
    // A clock read that never reaches a sink is clean, and so is a sink
    // fed only untainted values.
    let src = r#"
use std::time::Instant;
fn slow(budget_s: u64) -> bool {
    let t0 = Instant::now();
    t0.elapsed().as_secs() > budget_s
}
fn emit(out: &mut String, label: &str) {
    out.push_str(label);
}
"#;
    let diags = lint("crates/bench/src/x.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn determinism_taint_suppressed() {
    let src = r#"
use std::time::Instant;
fn stamp(out: &mut String) {
    let t0 = Instant::now();
    // lint:allow(determinism-taint) -- operator-facing progress line
    out.push_str(&format!("{:?}", t0));
}
"#;
    let diags = lint("crates/bench/src/x.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

// --------------------------------------------------- lock-discipline

/// The lock fixtures recover from poison explicitly so the clean cases
/// stay clean (`.lock().unwrap()` is itself a violation).
const RECOVER: &str = r#"
fn recover<T>(
    r: Result<std::sync::MutexGuard<'_, T>, std::sync::PoisonError<std::sync::MutexGuard<'_, T>>>,
) -> std::sync::MutexGuard<'_, T> {
    r.unwrap_or_else(|e| e.into_inner())
}
"#;

#[test]
fn lock_discipline_positive() {
    // lock.toml declares order ["inner", "OVERRIDE_LOCK"]: acquiring
    // `inner` while `OVERRIDE_LOCK` is held reverses it, and
    // `.lock().unwrap()` panics on poison.
    let src = format!(
        r#"
use std::sync::Mutex;
static OVERRIDE_LOCK: Mutex<u32> = Mutex::new(0);
struct Reg {{ inner: Mutex<u32> }}
fn reversed(r: &Reg) -> u32 {{
    let outer = recover(OVERRIDE_LOCK.lock());
    let held = recover(r.inner.lock());
    *held + *outer
}}
fn peek(r: &Reg) -> u32 {{
    *r.inner.lock().unwrap()
}}
{RECOVER}"#
    );
    let diags = lint("src/bin/x.rs", &src);
    assert_eq!(rules_of(&diags), vec!["lock-discipline"; 2], "{diags:?}");
}

#[test]
fn lock_discipline_negative() {
    // Nesting in the declared order is fine; so are back-to-back
    // statement-scoped guards whose lifetimes never overlap.
    let src = format!(
        r#"
use std::sync::Mutex;
static OVERRIDE_LOCK: Mutex<u32> = Mutex::new(0);
struct Reg {{ inner: Mutex<u32> }}
fn ordered(r: &Reg) -> u32 {{
    let first = recover(r.inner.lock());
    let second = recover(OVERRIDE_LOCK.lock());
    *first + *second
}}
fn sequential(r: &Reg) {{
    *recover(OVERRIDE_LOCK.lock()) += 1;
    *recover(r.inner.lock()) += 1;
}}
{RECOVER}"#
    );
    let diags = lint("src/bin/x.rs", &src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn lock_discipline_suppressed() {
    let src = r#"
use std::sync::Mutex;
struct Reg { inner: Mutex<u32> }
fn peek(r: &Reg) -> u32 {
    // lint:allow(lock-discipline) -- single-threaded startup path
    *r.inner.lock().unwrap()
}
"#;
    let diags = lint("src/bin/x.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

// ----------------------------------------------------- error-hygiene

#[test]
fn error_hygiene_positive() {
    // A wildcard arm over a configured error enum swallows future
    // variants; `.parse().unwrap()` panics on a Result. Binaries are
    // exempt from no-panic-in-lib, so only error-hygiene fires.
    let src = r#"
enum WireError { Truncated, Oversized }
fn classify(e: &WireError) -> &'static str {
    match e {
        WireError::Truncated => "truncated",
        _ => "other",
    }
}
fn port(s: &str) -> u16 {
    s.parse().unwrap()
}
"#;
    let diags = lint("src/bin/x.rs", src);
    assert_eq!(rules_of(&diags), vec!["error-hygiene"; 2], "{diags:?}");
    assert_eq!(diags[0].line, 6, "the wildcard arm: {diags:?}");
    assert_eq!(diags[1].line, 10, "the unwrap: {diags:?}");
}

#[test]
fn error_hygiene_negative() {
    // Exhaustive matches over error enums are fine; wildcards over
    // non-error enums are fine; unwrap on an Option accessor is not an
    // error-hygiene concern.
    let src = r#"
enum WireError { Truncated, Oversized }
fn classify(e: &WireError) -> &'static str {
    match e {
        WireError::Truncated => "truncated",
        WireError::Oversized => "oversized",
    }
}
enum Mode { Fast, Slow }
fn label(m: &Mode) -> &'static str {
    match m {
        Mode::Fast => "fast",
        _ => "slow",
    }
}
fn port(s: &str) -> Result<u16, std::num::ParseIntError> {
    s.parse()
}
fn head(v: &[u8]) -> u8 {
    *v.first().unwrap()
}
"#;
    let diags = lint("src/bin/x.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn error_hygiene_suppressed() {
    let src = r#"
fn port(s: &str) -> u16 {
    // lint:allow(error-hygiene) -- argv already validated by the usage check
    s.parse().unwrap()
}
"#;
    let diags = lint("src/bin/x.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}
