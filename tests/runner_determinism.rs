//! The sweep-runner determinism gate: the parallel executor must produce
//! **byte-identical** serialized reports at any thread count — the
//! property that makes `--threads` safe to expose on every paper
//! artifact. Exercised end-to-end through the real experiment registry,
//! not a toy spec.
//!
//! Cost split: the quick flow-level gates (fig4a, multiseed) always run —
//! they are the surface the incremental allocation engine must keep
//! byte-stable, and they are fast. The heavy gates (table1's detour
//! tables, the 9-ISP export, the full scenario-catalog replay) take tens
//! of seconds to minutes in debug builds, so they are `#[ignore]`d there
//! and run un-ignored in release — CI executes
//! `cargo test --release --test runner_determinism -- --include-ignored`
//! to keep the full-fidelity coverage on every push.

use inrpp_bench::sweeps::{self, SweepOptions};
use inrpp_runner::{run_sweep, RunnerConfig};

/// Serialize a sweep at a given thread count (JSON + CSV bytes).
fn run_serialized(id: &str, opts: &SweepOptions, threads: usize) -> (String, String) {
    let spec = sweeps::build(id, opts).expect("registered experiment");
    let report = run_sweep(&spec, &RunnerConfig { threads });
    (report.to_json(), report.to_csv())
}

/// Compare `got` with `tests/golden/<name>`, or rewrite the fixture
/// when `UPDATE_GOLDEN` is set (the convention of `golden_snapshots.rs`).
fn check_golden(name: &str, got: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, got).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with \
             UPDATE_GOLDEN=1 cargo test --test runner_determinism",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "{name} drifted. If intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test --test runner_determinism and review."
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "builds 9 ISP detour tables 3x over — minutes in debug; runs \
              un-ignored in release (CI's `--release -- --include-ignored` \
              step keeps the full-fidelity gate)"
)]
fn table1_sweep_is_byte_identical_at_threads_1_2_8() {
    let opts = SweepOptions::default();
    let baseline = run_serialized("table1", &opts, 1);
    assert!(baseline.0.contains("\"experiment\":\"table1\""));
    assert!(!baseline.1.is_empty());
    for threads in [2, 8] {
        let other = run_serialized("table1", &opts, threads);
        assert_eq!(
            baseline, other,
            "table1 sweep diverged between --threads 1 and --threads {threads}"
        );
    }
}

#[test]
fn quick_fig4a_sweep_is_byte_identical_at_threads_1_2_8() {
    // the flow-level simulator is the heaviest determinism surface
    // (workload generation, strategy state, weighted CDFs) — gate it too
    let opts = SweepOptions {
        quick: true,
        ..SweepOptions::default()
    };
    let baseline = run_serialized("fig4a", &opts, 1);
    // pinned across commits too, not only across thread counts: any
    // change to the fluid engine's arithmetic or event order shows here
    check_golden("fig4a_quick.csv", &baseline.1);
    for threads in [2, 8] {
        assert_eq!(
            baseline,
            run_serialized("fig4a", &opts, threads),
            "fig4a sweep diverged at --threads {threads}"
        );
    }
}

#[test]
fn multiseed_cells_use_derived_streams_and_stay_deterministic() {
    // the seed-aggregated Fig. 4a variant draws every cell's seed from
    // hash(experiment_id, cell_index) — rerunning at a different thread
    // count must reproduce the aggregate bytes exactly
    let opts = SweepOptions {
        quick: true,
        seeds: 2,
    };
    let a = run_serialized("fig4a", &opts, 1);
    let b = run_serialized("fig4a", &opts, 8);
    assert_eq!(a, b);
    // and the aggregate genuinely differs from the single-seed table
    let single = run_serialized(
        "fig4a",
        &SweepOptions {
            quick: true,
            ..SweepOptions::default()
        },
        1,
    );
    assert_ne!(a.1, single.1);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "replays the whole scenario catalog twice — tens of seconds in \
              debug; runs un-ignored in release (CI's `--release -- \
              --include-ignored` step keeps the full-fidelity gate)"
)]
fn every_scenario_sweep_is_byte_identical_at_threads_1_and_8() {
    // the catalog acceptance gate: every scenario:<topology>:<traffic>
    // cell must serialize to the same bytes at any worker count
    let opts = SweepOptions {
        quick: true,
        ..SweepOptions::default()
    };
    let ids: Vec<&str> = sweeps::EXPERIMENTS
        .iter()
        .map(|e| e.id)
        .filter(|id| id.starts_with("scenario:"))
        .collect();
    assert!(ids.len() >= 8, "catalog shrank below the acceptance floor");
    for id in ids {
        let serial = run_serialized(id, &opts, 1);
        let pooled = run_serialized(id, &opts, 8);
        assert_eq!(
            serial, pooled,
            "{id} diverged between --threads 1 and --threads 8"
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "regenerates all 9 ISP topologies (diameter included) twice — \
              slow in debug; runs un-ignored in release (CI's `--release -- \
              --include-ignored` step keeps the full-fidelity gate)"
)]
fn export_artifacts_are_stable_across_thread_counts() {
    let opts = SweepOptions::default();
    let spec = sweeps::build("export-topologies", &opts).expect("export sweep");
    let serial = run_sweep(&spec, &RunnerConfig { threads: 1 });
    let pooled = run_sweep(&spec, &RunnerConfig { threads: 8 });
    assert_eq!(serial.artifacts.len(), 9);
    for (a, b) in serial.artifacts.iter().zip(&pooled.artifacts) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.contents, b.contents, "{} diverged", a.name);
    }
}
