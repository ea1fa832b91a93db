//! The testkit's headline invariant: under every fault plan, a run that
//! reports success is bit-identical to the fault-free oracle — answers
//! and avoidance counters — across the whole engine configuration matrix.
//!
//! Every assertion prints the seed; rerunning the same seed replays the
//! exact fault pattern.

use mq_testkit::{config_matrix, scenario, Sim};

/// The CI seed set: small Fibonacci numbers, nothing magical — any seed
/// must pass, these are just the ones pinned for reproducibility.
const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

#[test]
fn lossy_disk_runs_match_the_oracle_when_they_succeed() {
    for &seed in &SEEDS {
        Sim::new(seed)
            .with_plan(scenario::disk_plan(seed))
            .assert_oracle_equivalence(4);
    }
}

#[test]
fn lossy_disk_faults_actually_fire() {
    // The equivalence above would be vacuous if the plans never injected
    // anything; check that across the seed set faults do occur and are
    // absorbed by the budget.
    let mut total_faults = 0u64;
    for &seed in &SEEDS {
        let sim = Sim::new(seed).with_plan(scenario::disk_plan(seed));
        for config in config_matrix(4) {
            let report = sim.run(config);
            assert!(
                report.gave_up.is_none(),
                "seed {seed}, {config:?}: budget 4 should absorb 2-faults-per-page plans, got {:?}",
                report.gave_up
            );
            total_faults += report.fault_stats.total_failures();
        }
    }
    assert!(
        total_faults > 0,
        "no fault fired across {} seeds — the plans are dead",
        SEEDS.len()
    );
}

#[test]
fn latency_spikes_change_no_counter_at_all() {
    // Latency-only plans succeed every read: even with a zero retry
    // budget the run must match the oracle exactly, and the spikes must
    // show up only in FaultStats.
    for &seed in &SEEDS {
        let sim = Sim::new(seed).with_plan(scenario::latency_plan(seed));
        sim.assert_oracle_equivalence(0);
        for config in config_matrix(0) {
            let report = sim.run(config);
            let oracle = sim.oracle(config);
            assert!(report.gave_up.is_none(), "seed {seed}, {config:?}");
            assert_eq!(report.io, oracle.io, "seed {seed}, {config:?}");
            assert!(
                report.fault_stats.latency_spikes > 0,
                "seed {seed}, {config:?}: a 30% latency plan should spike at least once"
            );
        }
    }
}

#[test]
fn zero_budget_either_succeeds_identically_or_fails_typed() {
    // With no retries, a transient plan often fails — but it must fail
    // with a typed error and preserved partial state, never silently.
    for &seed in &SEEDS {
        let sim = Sim::new(seed).with_plan(scenario::disk_plan(seed));
        for config in config_matrix(0) {
            let report = sim.run(config);
            let oracle = sim.oracle(config);
            match &report.gave_up {
                None => assert_eq!(
                    report.answers, oracle.answers,
                    "seed {seed}, {config:?}: success must mean oracle answers"
                ),
                Some(reason) => {
                    assert!(
                        reason.contains("page"),
                        "seed {seed}, {config:?}: error must name the page: {reason}"
                    );
                    // Completed queries keep their exact oracle answers.
                    for (qi, done) in report.completed.iter().enumerate() {
                        if *done {
                            assert_eq!(
                                report.answers[qi], oracle.answers[qi],
                                "seed {seed}, {config:?}: completed query {qi} diverged"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn killed_disk_surfaces_unavailable_and_preserves_completed_queries() {
    for &seed in &SEEDS {
        let sim = Sim::new(seed).with_plan(scenario::loss_plan(seed, 6));
        for config in config_matrix(8) {
            let report = sim.run(config);
            let oracle = sim.oracle(config);
            let reason = report.gave_up.as_deref().unwrap_or_else(|| {
                panic!("seed {seed}, {config:?}: a dead disk cannot finish 20 pages")
            });
            assert!(
                reason.contains("unavailable"),
                "seed {seed}, {config:?}: wrong error kind: {reason}"
            );
            assert!(
                report.fault_stats.unavailable_reads > 0,
                "seed {seed}, {config:?}"
            );
            for (qi, done) in report.completed.iter().enumerate() {
                if *done {
                    assert_eq!(
                        report.answers[qi], oracle.answers[qi],
                        "seed {seed}, {config:?}: completed query {qi} diverged"
                    );
                }
            }
        }
    }
}
