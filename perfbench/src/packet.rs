//! The chunk-level engine on the paper's mechanisms, measured in the
//! traced run of `daemon-sessions` (whose packet sessions load the same
//! engine through the daemon): three parts run one after the other on
//! one thread,
//!
//! * `fig3-deep` — two deep INRPP transfers over the Fig. 3 bottleneck
//!   (detours around the bottleneck link);
//! * `dumbbell-mixed` — a 64-pair dumbbell with alternating INRPP and
//!   AIMD flows (custody and back-pressure on the shared bottleneck);
//! * `fat-tree-outage` — the k=4 fat-tree with both core uplinks of
//!   `agg0-0` down for 5 s (fault recovery).
//!
//! Each part is opened with `PacketSim::start` and stepped in fixed
//! slices of simulated time with `PacketRun::run_until` — the same
//! engine calls a daemon `advance` makes — then finished. Untraced and
//! traced reps alternate; the per-layer numbers come from the last
//! traced one. Then the two sharding-safe shapes of the sharded driver
//! are run sequentially and with `try_run_sharded` at 1 and 2 workers;
//! the reports must be identical.

use std::time::Instant;

use inrpp::InrppConfig;
use inrpp_packetsim::{
    AimdConfig, FlowTransport, PacketSim, PacketSimConfig, PacketSimReport, TransferSpec,
    TransportKind,
};
use inrpp_sim::fault::{FaultEvent, FaultKind, FaultPlan};
use inrpp_sim::rng::SimRng;
use inrpp_sim::time::{SimDuration, SimTime};
use inrpp_sim::units::Rate;
use inrpp_topology::graph::NodeId;
use inrpp_topology::Topology;

use crate::measure::{median, quantile, secs_since, Outcome, Tracer};

/// One part's inputs: everything `PacketSim` is built from.
struct Part {
    name: &'static str,
    topo: Topology,
    cfg: PacketSimConfig,
    transfers: Vec<(TransferSpec, FlowTransport)>,
    faults: FaultPlan,
    /// Simulated time per `run_until` slice.
    slice: SimDuration,
    /// Stepping stops here and `finish` drains the rest; set below the
    /// parts' completion time so no slice is an idle clock move.
    step_until: SimTime,
}

impl Part {
    fn sim(&self) -> PacketSim<'_> {
        let mut sim = PacketSim::new(&self.topo, self.cfg);
        sim.set_faults(self.faults.clone());
        for (t, kind) in &self.transfers {
            sim.add_transfer_as(*t, *kind);
        }
        sim
    }
}

/// Jitter in `[0, max_ms)` milliseconds, whole microseconds.
fn jitter(rng: &mut SimRng, max_ms: u64) -> SimDuration {
    SimDuration::from_micros(rng.index((max_ms * 1000) as usize) as u64)
}

fn node(topo: &Topology, name: &str) -> Result<NodeId, String> {
    topo.node_by_name(name)
        .ok_or_else(|| format!("no node {name:?} in {}", topo.name()))
}

/// Deep transfers over Fig. 3: 60k chunks each, the second starting a
/// seeded few milliseconds after the first.
fn fig3_deep(rng: &mut SimRng, seed: u64) -> Result<Part, String> {
    let topo = Topology::fig3();
    let kind = FlowTransport::Inrpp;
    let transfers = vec![
        (
            TransferSpec {
                flow: 1,
                src: node(&topo, "1")?,
                dst: node(&topo, "4")?,
                chunks: 60_000,
                start: SimTime::ZERO,
            },
            kind,
        ),
        (
            TransferSpec {
                flow: 2,
                src: node(&topo, "1")?,
                dst: node(&topo, "3")?,
                chunks: 60_000,
                start: SimTime::ZERO + jitter(rng, 50),
            },
            kind,
        ),
    ];
    Ok(Part {
        name: "fig3-deep",
        cfg: PacketSimConfig {
            horizon: SimDuration::from_secs(1_500),
            seed,
            ..PacketSimConfig::default()
        },
        topo,
        transfers,
        faults: FaultPlan::default(),
        slice: SimDuration::from_secs(1),
        step_until: SimTime::from_secs(115),
    })
}

/// 64-pair mixed dumbbell: one INRPP and one AIMD flow of 1000 chunks
/// per pair, starts jittered by up to 2 ms.
fn dumbbell_mixed(rng: &mut SimRng, seed: u64) -> Result<Part, String> {
    let pairs = 64usize;
    let topo = Topology::dumbbell(
        pairs,
        Rate::mbps(10.0),
        Rate::mbps(100.0),
        SimDuration::from_millis(2),
    );
    let mut transfers = Vec::new();
    for i in 0..pairs {
        for (j, chunks) in [1_000u64, 1_000].into_iter().enumerate() {
            let kind = if j == 0 {
                FlowTransport::Inrpp
            } else {
                FlowTransport::Aimd
            };
            transfers.push((
                TransferSpec {
                    flow: (i as u64) * 2 + j as u64 + 1,
                    src: NodeId(i as u32),
                    dst: NodeId((pairs + 2 + i) as u32),
                    chunks,
                    start: SimTime::ZERO + jitter(rng, 2),
                },
                kind,
            ));
        }
    }
    Ok(Part {
        name: "dumbbell-mixed",
        cfg: PacketSimConfig {
            transport: TransportKind::Mixed {
                inrpp: InrppConfig::default(),
                aimd: AimdConfig::default(),
            },
            horizon: SimDuration::from_secs(150),
            seed,
            ..PacketSimConfig::default()
        },
        topo,
        transfers,
        faults: FaultPlan::default(),
        slice: SimDuration::from_millis(100),
        step_until: SimTime::from_secs(14),
    })
}

/// Six cross-pod transfers on the k=4 fat-tree; both core uplinks of
/// `agg0-0` fail at a seeded instant near 1 s and return 5 s later.
fn fat_tree_outage(rng: &mut SimRng, seed: u64) -> Result<Part, String> {
    let topo = inrpp_topology::synth::fat_tree(4, 7);
    let down = SimTime::from_secs(1) + jitter(rng, 200);
    let up = down + SimDuration::from_secs(5);
    let mut events = Vec::new();
    for core in ["core0", "core1"] {
        let link = topo
            .link_between(node(&topo, "agg0-0")?, node(&topo, core)?)
            .ok_or("agg0-0 has no core uplink")?
            .idx() as u32;
        events.push(FaultEvent {
            at: down,
            kind: FaultKind::LinkDown { link },
        });
        events.push(FaultEvent {
            at: up,
            kind: FaultKind::LinkUp { link },
        });
    }
    events.sort_by_key(|e| e.at);
    let faults = FaultPlan::try_new(events).map_err(|e| format!("outage plan: {e}"))?;
    let pairs = [
        ("host0-0-0", "host1-0-0"),
        ("host0-0-1", "host1-1-1"),
        ("host0-1-0", "host2-0-0"),
        ("host0-1-1", "host2-1-1"),
        ("host0-0-0", "host3-0-0"),
        ("host0-1-0", "host3-1-1"),
    ];
    let mut transfers = Vec::new();
    for (i, (src, dst)) in pairs.iter().enumerate() {
        transfers.push((
            TransferSpec {
                flow: i as u64 + 1,
                src: node(&topo, src)?,
                dst: node(&topo, dst)?,
                chunks: 6_000,
                start: SimTime::from_millis(50 * i as u64) + jitter(rng, 10),
            },
            FlowTransport::Inrpp,
        ));
    }
    Ok(Part {
        name: "fat-tree-outage",
        cfg: PacketSimConfig {
            horizon: SimDuration::from_secs(400),
            seed,
            ..PacketSimConfig::default()
        },
        topo,
        transfers,
        faults,
        slice: SimDuration::from_millis(100),
        step_until: SimTime::from_secs(10),
    })
}

fn parts(seed: u64) -> Result<Vec<Part>, String> {
    let rng = SimRng::from_seed_u64(seed);
    Ok(vec![
        fig3_deep(&mut rng.derive(1), seed)?,
        dumbbell_mixed(&mut rng.derive(2), seed)?,
        fat_tree_outage(&mut rng.derive(3), seed)?,
    ])
}

/// Open, step and finish one part.
fn run_part(part: &Part, tracer: &mut Tracer) -> Result<PacketSimReport, String> {
    tracer.begin("packetsim.part");
    let t0 = Instant::now();
    let mut run = part
        .sim()
        .start()
        .map_err(|e| format!("{}: start: {e}", part.name))?;
    tracer.leaf("packetsim.engine.start", t0, Instant::now());
    let mut k = 1u64;
    while run.now() < part.step_until {
        let to = SimTime::ZERO + part.slice.saturating_mul(k);
        let t0 = Instant::now();
        run.run_until(to, &mut [])
            .map_err(|e| format!("{}: run_until: {e}", part.name))?;
        tracer.leaf("packetsim.engine.run_until", t0, Instant::now());
        k += 1;
    }
    let t0 = Instant::now();
    let report = run
        .finish(&mut [])
        .map_err(|e| format!("{}: finish: {e}", part.name))?;
    tracer.leaf("packetsim.engine.finish", t0, Instant::now());
    tracer.end();
    Ok(report)
}

fn rep(parts: &[Part], tracer: &mut Tracer) -> Result<Vec<PacketSimReport>, String> {
    parts.iter().map(|p| run_part(p, tracer)).collect()
}

/// Every transfer of the part completed, each chunk counted once.
fn complete(part: &Part, r: &PacketSimReport) -> bool {
    r.completed() == part.transfers.len()
        && r.flows
            .iter()
            .all(|f| f.chunks_delivered >= f.chunks_total && f.chunks_total > 0)
}

/// Run the parts untraced once, check them, then the traced reps and
/// the sharded-driver checks; adds the packet layers' metrics to `out`.
pub fn traced(seed: u64, out: &mut Outcome) -> Result<(), String> {
    let ps = parts(seed)?;
    let first = rep(&ps, &mut Tracer::new(false))?;
    for (p, r) in ps.iter().zip(&first) {
        out.check(
            complete(p, r),
            &format!("{}: every transfer completes", p.name),
        );
    }
    traced_run(&ps, &first, out)?;
    shard_checks(out)
}

fn traced_run(ps: &[Part], first: &[PacketSimReport], out: &mut Outcome) -> Result<(), String> {
    // untraced and traced reps alternated: the tracing overhead; the
    // per-layer numbers come from the last traced rep
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut tracer, mut reports) = (Tracer::new(true), Vec::new());
    for _ in 0..3 {
        let t0 = Instant::now();
        rep(ps, &mut Tracer::new(false))?;
        untraced.push(secs_since(t0));
        tracer = Tracer::new(true);
        tracer.begin("workload.rep");
        let t0 = Instant::now();
        reports = rep(ps, &mut tracer)?;
        traced.push(secs_since(t0));
        tracer.end();
        out.check(reports == first, "traced rep equals untraced rep");
    }
    let (untraced, traced) = (median(&untraced), median(&traced));

    let slices: Vec<f64> = tracer
        .durations("packetsim.engine.run_until")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    let sum = |f: &dyn Fn(&PacketSimReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let delivered = sum(&|r| r.chunks_delivered);
    let dropped = sum(&|r| r.chunks_dropped);
    let retransmits = sum(&|r| r.flows.iter().map(|f| f.retransmits).sum());
    let custody_peak = reports
        .iter()
        .map(|r| r.custody_peak.as_bytes())
        .max()
        .unwrap_or(0);
    out.metric(
        "packetsim.engine.run_until_s",
        slices.iter().sum::<f64>() / 1e3,
        "s",
    );
    out.metric(
        "packetsim.engine.slice_ms_p50",
        quantile(&slices, 0.5),
        "ms",
    );
    out.metric(
        "packetsim.engine.slice_ms_p99",
        quantile(&slices, 0.99),
        "ms",
    );
    out.metric("packetsim.engine.chunks_delivered", delivered, "count");
    out.metric(
        "packetsim.engine.chunks_detoured",
        sum(&|r| r.chunks_detoured),
        "count",
    );
    out.metric(
        "packetsim.engine.chunks_custodied",
        sum(&|r| r.chunks_custodied),
        "count",
    );
    out.metric(
        "packetsim.engine.chunks_rescued",
        sum(&|r| r.chunks_rescued),
        "count",
    );
    out.metric("packetsim.engine.retransmits", retransmits, "count");
    out.metric("packetsim.engine.chunks_dropped", dropped, "count");
    out.metric(
        "packetsim.engine.useful_ratio",
        delivered / (delivered + dropped + retransmits).max(1.0),
        "ratio",
    );
    out.metric("cache.custody.peak", custody_peak as f64, "bytes");
    out.metric(
        "core.backpressure.msgs",
        sum(&|r| r.backpressure_msgs),
        "count",
    );
    out.metric(
        "core.phase.transitions",
        sum(&|r| r.phase_transitions),
        "count",
    );
    // the trace.* metrics are the daemon workload's own
    eprintln!(
        "perfbench: packet parts: traced rep {traced:.4} s, untraced {untraced:.4} s, {} spans",
        tracer.len()
    );
    crate::write_spans(&tracer, "packet-parts")
}

// ===================================================================
// Sharded driver vs sequential engine
// ===================================================================

/// Fixed BFS partition seed: the partition must not move between runs.
const PARTITION_SEED: u64 = 7;

/// INRPP with load-aware detouring off — the one knob the sharded driver
/// rejects.
fn shardable_inrpp() -> InrppConfig {
    InrppConfig {
        load_aware_detour: false,
        ..InrppConfig::default()
    }
}

/// The two sharding-safe shapes: odd-nanosecond delays and
/// fractional-Mbps rates keep channel instants off the barrier ladder.
fn shard_shapes() -> Vec<(&'static str, Part)> {
    let line_topo = Topology::line(6, Rate::mbps(97.3), SimDuration::from_nanos(1_300_017));
    let ids: Vec<_> = line_topo.node_ids().collect();
    let line = Part {
        name: "line",
        cfg: PacketSimConfig {
            transport: TransportKind::Inrpp(shardable_inrpp()),
            horizon: SimDuration::from_secs(8),
            ..PacketSimConfig::default()
        },
        transfers: [(ids[0], ids[5]), (ids[5], ids[0])]
            .iter()
            .enumerate()
            .map(|(i, &(src, dst))| {
                (
                    TransferSpec {
                        flow: i as u64 + 1,
                        src,
                        dst,
                        chunks: 50_000,
                        start: SimTime::ZERO,
                    },
                    FlowTransport::Inrpp,
                )
            })
            .collect(),
        topo: line_topo,
        faults: FaultPlan::default(),
        slice: SimDuration::from_secs(1),
        step_until: SimTime::ZERO,
    };
    let pairs = 16usize;
    let mut transfers = Vec::new();
    for i in 0..pairs {
        for j in 0..2u64 {
            let kind = if j == 0 {
                FlowTransport::Inrpp
            } else {
                FlowTransport::Aimd
            };
            transfers.push((
                TransferSpec {
                    flow: (i as u64) * 2 + j + 1,
                    src: NodeId(i as u32),
                    dst: NodeId((pairs + 2 + i) as u32),
                    chunks: 3_200,
                    start: SimTime::ZERO,
                },
                kind,
            ));
        }
    }
    let dumbbell = Part {
        name: "dumbbell",
        topo: Topology::dumbbell(
            pairs,
            Rate::mbps(97.3),
            Rate::mbps(393.9),
            SimDuration::from_nanos(2_700_031),
        ),
        cfg: PacketSimConfig {
            transport: TransportKind::Mixed {
                inrpp: shardable_inrpp(),
                aimd: AimdConfig::default(),
            },
            horizon: SimDuration::from_secs(5),
            ..PacketSimConfig::default()
        },
        transfers,
        faults: FaultPlan::default(),
        slice: SimDuration::from_secs(1),
        step_until: SimTime::ZERO,
    };
    vec![("line", line), ("dumbbell", dumbbell)]
}

/// Run both shapes sequentially and sharded at 1 and 2 workers; the
/// sharded reports must equal the sequential ones.
fn shard_checks(out: &mut Outcome) -> Result<(), String> {
    for (name, part) in shard_shapes() {
        let t0 = Instant::now();
        let seq = part
            .sim()
            .try_run()
            .map_err(|e| format!("{name}: sequential run: {e}"))?;
        let mut times = vec![secs_since(t0)];
        for workers in [1, 2] {
            let t0 = Instant::now();
            let sharded = part
                .sim()
                .try_run_sharded(workers, PARTITION_SEED)
                .map_err(|e| format!("{name}: sharded run: {e}"))?;
            times.push(secs_since(t0));
            out.check(
                sharded == seq,
                &format!("{name}: sharded report at {workers} workers equals sequential"),
            );
        }
        for (suffix, t) in ["seq_s", "w1_s", "w2_s"].iter().zip(times) {
            out.metric(&format!("sim.shard.{name}_{suffix}"), t, "s");
        }
    }
    Ok(())
}
