//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--inrpp <path>]
//! ```
//!
//! Runs one workload in this process (the daemon workload spawns
//! `inrpp serve`, whose binary `--inrpp` names), checks its outputs, and
//! prints one JSON result line last on stdout: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics of the traced run with
//! `--trace 1`. Human-readable detail goes to stderr; the traced run's
//! spans go to `.perfbench/spans-<workload>.csv`. See `README.md` for
//! the workloads and metrics.

mod daemon;
mod fluid;
mod measure;
mod packet;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use measure::{median, quantile, Outcome, Tracer};

/// Scratch directory (checkpoints, spans), relative to the checkout root
/// the benchmark runs from.
pub const WORK_DIR: &str = ".perfbench";

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 2] = ["fluid-isp-overload", "daemon-sessions"];

/// End-to-end metrics printed by every untraced run: (name, unit).
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
    ("advance_p50_ms", "ms"),
    ("advance_p99_ms", "ms"),
    ("open_p50_ms", "ms"),
    ("req_per_s", "1/s"),
];

/// Per-layer metrics printed by every traced run: (name, unit). A layer
/// a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("flowsim.engine.allocate_s", "s"),
    ("flowsim.engine.allocate_calls", "count"),
    ("flowsim.engine.allocate_us_p50", "us"),
    ("flowsim.engine.allocate_us_p99", "us"),
    ("flowsim.engine.allocate_share", "ratio"),
    ("flowsim.engine.fill_rounds", "count"),
    ("flowsim.engine.active_flows_mean", "count"),
    ("flowsim.engine.flow_hops", "count"),
    ("flowsim.strategy.paths_for_s", "s"),
    ("flowsim.strategy.paths_for_calls", "count"),
    ("topology.detour_table_s", "s"),
    ("topology.generate_s", "s"),
    ("flowsim.sim.self_s", "s"),
    ("runner.pool.t1_s", "s"),
    ("runner.pool.t2_s", "s"),
    ("runner.pool.speedup_t2", "ratio"),
    ("packetsim.engine.run_until_s", "s"),
    ("packetsim.engine.slice_ms_p50", "ms"),
    ("packetsim.engine.slice_ms_p99", "ms"),
    ("packetsim.engine.chunks_delivered", "count"),
    ("packetsim.engine.chunks_detoured", "count"),
    ("packetsim.engine.chunks_custodied", "count"),
    ("packetsim.engine.chunks_rescued", "count"),
    ("packetsim.engine.retransmits", "count"),
    ("packetsim.engine.chunks_dropped", "count"),
    ("packetsim.engine.useful_ratio", "ratio"),
    ("cache.custody.peak", "bytes"),
    ("core.backpressure.msgs", "count"),
    ("core.phase.transitions", "count"),
    ("sim.shard.line_seq_s", "s"),
    ("sim.shard.line_w1_s", "s"),
    ("sim.shard.line_w2_s", "s"),
    ("sim.shard.dumbbell_seq_s", "s"),
    ("sim.shard.dumbbell_w1_s", "s"),
    ("sim.shard.dumbbell_w2_s", "s"),
    ("server.conn.first_byte_ms_p50", "ms"),
    ("server.conn.first_byte_ms_p99", "ms"),
    ("server.transport.reply_tail_ms_p50", "ms"),
    ("server.transport.reply_tail_ms_p99", "ms"),
    ("server.protocol.parse_us", "us"),
    ("server.protocol.lines", "count"),
    ("server.daemon.advance_samples", "count"),
    ("runner.slots.grants", "count"),
    ("server.daemon.events", "count"),
    ("server.daemon.advances", "count"),
    ("server.daemon.ckpt_writes", "count"),
    ("server.daemon.checkpoint_ms_p50", "ms"),
    ("server.daemon.checkpoint_bytes", "bytes"),
    ("server.daemon.requests", "count"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
];

/// Raw samples of the timed phase, turned into the end-to-end metrics.
#[derive(Debug, Default)]
pub struct Timed {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Seconds of each repetition of the workload's fixed unit of work.
    pub rep_s: Vec<f64>,
    /// Session-open latencies, milliseconds.
    pub open_ms: Vec<f64>,
    /// Advance latencies, milliseconds.
    pub advance_ms: Vec<f64>,
    /// Requests (open, advance, finish, ...) completed in the reps.
    pub requests: u64,
    /// Peak RSS of the process doing the work, MiB.
    pub peak_rss_mb: f64,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    inrpp: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut inrpp = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--inrpp" => inrpp = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        inrpp,
    })
}

/// Seconds of untimed reps before anything is timed: the first seconds
/// of a busy process run measurably slower on small virtual machines.
const WARM_UP_SECS: f64 = 4.0;

/// Run `rep` untimed until [`WARM_UP_SECS`] have passed since `since`.
pub fn warm_up(
    since: std::time::Instant,
    mut rep: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    while measure::secs_since(since) < WARM_UP_SECS {
        rep()?;
    }
    Ok(())
}

/// Write the traced run's spans next to the other scratch files.
pub fn write_spans(tracer: &Tracer, workload: &str) -> Result<(), String> {
    tracer.write(&Path::new(WORK_DIR).join(format!("spans-{workload}.csv")))
}

fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(WORK_DIR).map_err(|e| format!("cannot create {WORK_DIR}: {e}"))?;
    let mut out = Outcome::default();
    let timed = match args.workload.as_str() {
        "fluid-isp-overload" => fluid::run(args.seed, args.seconds, args.trace, &mut out)?,
        "daemon-sessions" => {
            let inrpp = args
                .inrpp
                .as_deref()
                .ok_or("daemon-sessions needs --inrpp <path to the inrpp binary>")?;
            daemon::run(inrpp, args.seed, args.seconds, args.trace, &mut out)?
        }
        _ => unreachable!("workload validated in parse_args"),
    };
    if args.trace {
        if let Some((name, _, unit)) = out
            .metrics
            .iter()
            .find(|(n, _, u)| !PER_LAYER.contains(&(n.as_str(), *u)))
        {
            return Err(format!("{name} ({unit}) is not a per-layer metric"));
        }
        // every per-layer name, 0 for a layer this workload leaves idle
        let mut layers = Outcome {
            attempted: out.attempted,
            failed: out.failed,
            metrics: Vec::new(),
        };
        for (name, unit) in PER_LAYER {
            let value = out
                .metrics
                .iter()
                .find(|m| m.0 == name)
                .map_or(0.0, |m| m.1);
            layers.metric(name, value, unit);
        }
        return Ok(layers);
    }
    if timed.rep_s.is_empty() || timed.advance_ms.is_empty() || timed.open_ms.is_empty() {
        return Err("the timed phase recorded no samples".into());
    }
    let attempted = out.attempted.max(1) as f64;
    let busy_s: f64 = timed.rep_s.iter().sum();
    eprintln!(
        "perfbench: {} seed {}: {} reps, {} advances, {} opens, {} requests in {:.3} s",
        args.workload,
        args.seed,
        timed.rep_s.len(),
        timed.advance_ms.len(),
        timed.open_ms.len(),
        timed.requests,
        busy_s
    );
    let reps: Vec<String> = timed.rep_s.iter().map(|s| format!("{s:.4}")).collect();
    eprintln!("perfbench: rep seconds: {}", reps.join(" "));
    eprintln!(
        "perfbench: {} set-ups: min {:.6} median {:.6} max {:.6} s",
        timed.setup_s.len(),
        quantile(&timed.setup_s, 0.0),
        median(&timed.setup_s),
        quantile(&timed.setup_s, 1.0)
    );
    // Whole-run aggregates: the host's speed drifts between states that
    // last from seconds to minutes, and a mean or a pooled quantile moves
    // with the share of the run spent in each state, where a median of a
    // few reps jumps to whichever state held most of them.
    let values = [
        median(&timed.setup_s),
        busy_s / timed.rep_s.len() as f64,
        timed.peak_rss_mb,
        (attempted - out.failed as f64) / attempted,
        quantile(&timed.advance_ms, 0.5),
        quantile(&timed.advance_ms, 0.99),
        quantile(&timed.open_ms, 0.5),
        timed.requests as f64 / busy_s,
    ];
    for ((name, unit), value) in END_TO_END.iter().zip(values) {
        out.metric(name, value, unit);
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            println!("{}", out.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the metrics and workloads this
    /// program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let entry = |name: &str| format!("\"name\": \"{name}\"");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let at = json
                .find(&entry(name))
                .unwrap_or_else(|| panic!("{name} missing"));
            let rest = &json[at..];
            let unit_at = rest.find("\"unit\": \"").expect("unit follows name") + 9;
            assert!(
                rest[unit_at..].starts_with(&format!("{unit}\"")),
                "{name} unit"
            );
        }
        for w in WORKLOADS {
            assert!(json.contains(&entry(w)), "{w} missing");
        }
        let names = json.matches("\"name\": ").count();
        assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len());
    }
}
