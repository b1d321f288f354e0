//! Replay every minimized reproducer in `testkit/corpus/` through the
//! full differential harness: all four {planner} × {exec engine}
//! combinations under every scheduler shape, plus both planners'
//! prepared paths. Each
//! corpus file is a bug the fuzzer once found, shrunk to its essence; a
//! failure here means the bug came back.

use mpp_testkit::{combos, corpus, run_case, sched_axis};

#[test]
fn corpus_replays_clean_across_all_combos() {
    assert_eq!(combos().len(), 4, "the combo matrix changed size");
    assert_eq!(sched_axis().len(), 3, "the scheduler axis changed size");
    let cases = corpus::load_all().expect("corpus must parse");
    assert!(
        !cases.is_empty(),
        "testkit/corpus is empty — reproducers should be checked in"
    );
    for (name, case) in cases {
        if let Some(f) = run_case(&case) {
            panic!("corpus case {name} regressed:\n{f}");
        }
    }
}
