//! A bounded differential run inside `cargo test`: a few dozen generated
//! cases through the full harness, enough to catch gross regressions in
//! any {planner} × {exec engine} × {scheduler} cell without the runtime
//! of a real fuzz campaign (`scripts/fuzz.sh` does that). Seeds are
//! fixed, so a failure here is deterministic — reproduce it with
//! `cargo run -p mpp-testkit --bin fuzz -- --cases 1 --seed <seed>`.

use mpp_testkit::{gen_case, run_case, shrink};

const SEEDS: std::ops::Range<u64> = 10_000..10_040;

#[test]
fn generated_cases_pass_the_differential_harness() {
    let mut failures = Vec::new();
    for seed in SEEDS {
        let case = gen_case(seed);
        if let Some(f) = run_case(&case) {
            failures.push(format!("seed {seed}: {f}"));
        }
    }
    assert!(
        failures.is_empty(),
        "{} differential failure(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// The shrinker must terminate and keep the failure on a real generated
/// case with a synthetic oracle: "fails whenever table 0 still has a
/// query action". This exercises the table/row/partition/predicate
/// passes against generator output rather than hand-built minimal cases.
#[test]
fn shrinker_terminates_on_generated_cases() {
    use mpp_testkit::case::Action;
    for seed in [42u64, 77, 123] {
        let case = gen_case(seed);
        let has_query =
            |c: &mpp_testkit::Case| c.actions.iter().any(|a| matches!(a, Action::Query(_)));
        if !has_query(&case) {
            continue;
        }
        let small = shrink(&case, &has_query);
        assert!(has_query(&small), "shrinker lost the failure (seed {seed})");
        assert!(
            small.actions.len() <= case.actions.len(),
            "shrinker grew the case (seed {seed})"
        );
    }
}
