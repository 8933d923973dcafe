//! `fluid-isp-overload`: the full-mode Fig. 4a sweep — the three ISP
//! topologies × SP/ECMP/URP at load 1.25 — run cell after cell through
//! `inrpp::session::Session` and the fluid service layer.
//!
//! The timed phase steps each cell in fixed 0.25 s slices of simulated
//! time (`FluidService::advance`), so the workload reports the same
//! open/advance latencies as the daemon. The traced run additionally
//! captures every cell's arrival/departure/allocation sequence with a
//! `Probe` and replays it into a fresh `AllocEngine`, timing
//! `RoutingStrategy::paths_for` and `AllocEngine::allocate` call by call
//! and requiring every replayed rate vector to be bit-equal to the one
//! the run reported.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use inrpp::scenario::{build_workload, fig4_topologies, Fig4Config};
use inrpp::session::{AllocationEvent, FlowEnd, FlowStart, Probe, RunReport};
use inrpp::{FluidBacking, FluidService, ServiceSession, Session, SessionStrategy};
use inrpp_flowsim::engine::AllocEngine;
use inrpp_flowsim::strategy::RoutingStrategy;
use inrpp_flowsim::workload::Workload;
use inrpp_runner::{run_sweep, CellOutput, RunnerConfig, SweepSpec};
use inrpp_sim::time::{SimDuration, SimTime};
use inrpp_topology::graph::NodeId;
use inrpp_topology::rocketfuel::generate_with_capacities;
use inrpp_topology::Topology;

use crate::measure::{quantile, secs_since, Outcome, Tracer};
use crate::Timed;

/// Topology seed of the paper's sweep: the ISP maps stay fixed and the
/// benchmark seed varies the traffic only.
const TOPOLOGY_SEED: u64 = 1221;

/// Simulated time per `advance` call.
const SLICE_SECS: f64 = 0.25;

/// The full-mode Fig. 4a configuration, with the benchmark seed as the
/// workload seed.
fn config(seed: u64) -> Fig4Config {
    Fig4Config {
        duration: SimDuration::from_secs(5),
        load: 1.25,
        mean_flow_bits: 80e6,
        seed,
        ..Fig4Config::default()
    }
}

fn strategies(cfg: &Fig4Config) -> [SessionStrategy; 3] {
    [
        SessionStrategy::Sp,
        SessionStrategy::Ecmp,
        SessionStrategy::Urp(cfg.inrp),
    ]
}

/// Everything set-up produces: the topologies and one workload each.
struct Inputs {
    cfg: Fig4Config,
    topologies: Vec<Topology>,
    workloads: Vec<Workload>,
}

fn generate(seed: u64, tracer: &mut Tracer) -> Inputs {
    let cfg = config(seed);
    let mut topologies = Vec::new();
    let mut workloads = Vec::new();
    for isp in fig4_topologies() {
        let t0 = Instant::now();
        let topo = generate_with_capacities(&isp.profile(), TOPOLOGY_SEED, cfg.capacities);
        tracer.leaf("topology.generate", t0, Instant::now());
        let t0 = Instant::now();
        workloads.push(build_workload(&topo, &cfg));
        tracer.leaf("flowsim.workload.generate", t0, Instant::now());
        topologies.push(topo);
    }
    Inputs {
        cfg,
        topologies,
        workloads,
    }
}

/// One sweep cell, ready to open: the validated session and its backing
/// (the built routing strategy — detour tables for URP — and workload).
struct Cell<'a> {
    session: Session<'a>,
    backing: FluidBacking,
}

fn build_cells<'a>(inputs: &'a Inputs, tracer: &mut Tracer) -> Result<Vec<Cell<'a>>, String> {
    let mut out = Vec::new();
    for (topo, workload) in inputs.topologies.iter().zip(&inputs.workloads) {
        for strategy in strategies(&inputs.cfg) {
            let session = Session::builder()
                .topology(topo)
                .workload(workload.clone())
                .strategy(strategy)
                .horizon(inputs.cfg.duration)
                .seed(inputs.cfg.seed)
                .build()
                .map_err(|e| format!("fig4 session: {e}"))?;
            let t0 = Instant::now();
            let backing = FluidBacking::for_session(&session);
            tracer.leaf("flowsim.session.backing", t0, Instant::now());
            out.push(Cell { session, backing });
        }
    }
    Ok(out)
}

/// Every arrived flow is accounted for: completed, still in flight at
/// the horizon, or unroutable.
fn accounted(r: &RunReport) -> bool {
    let partial = r
        .flows
        .iter()
        .filter(|f| f.routed && !f.completed())
        .count();
    r.arrived_flows == r.completed_flows + partial + r.unroutable_flows
        && r.arrived_flows == r.flows.len()
        && r.arrived_flows > 0
}

/// Open one cell, step it to the horizon and finish it; latencies go
/// into `timed`.
fn run_cell(
    cell: &Cell<'_>,
    timed: &mut Timed,
    tracer: &mut Tracer,
    probes: &mut [&mut dyn Probe],
) -> Result<RunReport, String> {
    tracer.begin("flowsim.session.run");
    let t0 = Instant::now();
    let mut svc =
        FluidService::open(&cell.session, &cell.backing).map_err(|e| format!("fluid open: {e}"))?;
    timed.open_ms.push(secs_since(t0) * 1e3);
    let horizon = svc.horizon();
    let mut k = 1u64;
    while svc.now() < horizon {
        let to = SimTime::ZERO + SimDuration::from_secs_f64(SLICE_SECS * k as f64);
        let t0 = Instant::now();
        svc.advance(to, probes)
            .map_err(|e| format!("fluid advance: {e}"))?;
        timed.advance_ms.push(secs_since(t0) * 1e3);
        k += 1;
    }
    let report = svc
        .finish_run(probes)
        .map_err(|e| format!("fluid finish: {e}"))?;
    tracer.end();
    timed.requests += k + 1;
    Ok(report)
}

/// One rep: every cell in turn, untraced.
fn rep(cells: &[Cell<'_>], timed: &mut Timed) -> Result<Vec<RunReport>, String> {
    let mut off = Tracer::new(false);
    cells
        .iter()
        .map(|c| run_cell(c, timed, &mut off, &mut []))
        .collect()
}

/// The run's deterministic outcome per cell, compared across reps.
fn fingerprint(r: &RunReport) -> (usize, usize, usize, u64) {
    (
        r.arrived_flows,
        r.completed_flows,
        r.unroutable_flows,
        r.delivered_bits.to_bits(),
    )
}

/// One set-up, timed: topology generation, workload generation and the
/// routing strategies (detour tables for URP).
fn setup_once(seed: u64) -> Result<f64, String> {
    let mut off = Tracer::new(false);
    let t0 = Instant::now();
    let inputs = generate(seed, &mut off);
    build_cells(&inputs, &mut off)?;
    Ok(secs_since(t0))
}

pub fn run(seed: u64, seconds: f64, traced: bool, out: &mut Outcome) -> Result<Timed, String> {
    let mut timed = Timed::default();
    let mut off = Tracer::new(false);
    let warm = Instant::now();
    let inputs = generate(seed, &mut off);
    let cells = build_cells(&inputs, &mut off)?;
    let first: Vec<_> = rep(&cells, &mut Timed::default())?;
    for r in &first {
        out.check(accounted(r), "fluid cell flow accounting");
    }
    let first: Vec<_> = first.iter().map(fingerprint).collect();
    // set-up is sampled once per rep, so its samples span the run
    crate::warm_up(warm, || {
        timed.setup_s.push(setup_once(seed)?);
        rep(&cells, &mut Timed::default()).map(drop)
    })?;

    if traced {
        traced_run(seed, &inputs, &cells, out)?;
        return Ok(timed);
    }

    let start = Instant::now();
    while timed.rep_s.is_empty() || secs_since(start) < seconds {
        timed.setup_s.push(setup_once(seed)?);
        let t0 = Instant::now();
        let reports = rep(&cells, &mut timed)?;
        timed.rep_s.push(secs_since(t0));
        let prints: Vec<_> = reports.iter().map(fingerprint).collect();
        out.check(prints == first, "fluid reps repeat exactly");
    }
    timed.peak_rss_mb = crate::measure::peak_rss_mb("self")?;
    Ok(timed)
}

// ===================================================================
// Traced run: capture, replay, runner pool
// ===================================================================

/// One engine call the run made, in order.
enum Op {
    Insert { flow: u64, src: NodeId, dst: NodeId },
    Remove { flow: u64 },
    Allocate { flows: Vec<u64>, rates: Vec<f64> },
}

/// Probe recording the allocator's input/output sequence.
#[derive(Default)]
struct Capture {
    ops: Vec<Op>,
}

impl Probe for Capture {
    fn on_flow_start(&mut self, ev: &FlowStart) {
        self.ops.push(Op::Insert {
            flow: ev.flow,
            src: ev.src,
            dst: ev.dst,
        });
    }

    fn on_flow_end(&mut self, ev: &FlowEnd) {
        self.ops.push(Op::Remove { flow: ev.flow });
    }

    fn on_allocation(&mut self, ev: &AllocationEvent<'_>) {
        self.ops.push(Op::Allocate {
            flows: ev.flows.to_vec(),
            rates: ev.rates.to_vec(),
        });
    }
}

/// Work counters of the replayed allocator calls.
#[derive(Default)]
struct Replay {
    calls: u64,
    rounds: u64,
    active_sum: u64,
    flow_hops: u64,
    paths_for_calls: u64,
    mismatches: u64,
}

/// Replay one cell's captured sequence into a fresh engine.
fn replay(
    topo: &Topology,
    strategy: &dyn RoutingStrategy,
    ops: &[Op],
    tracer: &mut Tracer,
    acc: &mut Replay,
) -> Result<(), String> {
    let mut eng = AllocEngine::new(topo);
    let mut hops: HashMap<u64, u64> = HashMap::new();
    let mut active_hops = 0u64;
    tracer.begin("flowsim.replay");
    for op in ops {
        match op {
            Op::Insert { flow, src, dst } => {
                let t0 = Instant::now();
                let paths = strategy.paths_for(topo, *src, *dst, *flow);
                tracer.leaf("flowsim.strategy.paths_for", t0, Instant::now());
                acc.paths_for_calls += 1;
                eng.insert(*flow, &paths)
                    .map_err(|e| format!("replay insert {flow}: {e}"))?;
                let h: u64 = paths.iter().map(|p| p.hops() as u64).sum();
                hops.insert(*flow, h);
                active_hops += h;
            }
            Op::Remove { flow } => {
                eng.remove(*flow);
                active_hops -= hops.remove(flow).unwrap_or(0);
            }
            Op::Allocate { flows, rates } => {
                let t0 = Instant::now();
                eng.allocate();
                tracer.leaf("flowsim.engine.allocate", t0, Instant::now());
                acc.calls += 1;
                acc.rounds += eng.rounds() as u64;
                acc.active_sum += eng.len() as u64;
                acc.flow_hops += active_hops;
                let same = eng.keys() == flows.as_slice()
                    && eng.flow_rates().len() == rates.len()
                    && eng
                        .flow_rates()
                        .iter()
                        .zip(rates)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                if !same {
                    acc.mismatches += 1;
                }
            }
        }
    }
    tracer.end();
    Ok(())
}

/// `run_sweep` of the nine cells at `threads` workers; returns the wall
/// time and the merged rows.
fn pool_sweep(inputs: &Inputs, threads: usize) -> (f64, Vec<Vec<String>>) {
    let mut spec = SweepSpec::new(
        "perfbench-fig4a",
        "fluid-isp-overload",
        ["cell", "delivered"],
    );
    for (topo, workload) in inputs.topologies.iter().zip(&inputs.workloads) {
        let topo = Arc::new(topo.clone());
        let workload = Arc::new(workload.clone());
        for strategy in strategies(&inputs.cfg) {
            let (topo, workload, cfg) = (topo.clone(), workload.clone(), inputs.cfg);
            spec.push_cell(strategy.name(), move |_ctx| {
                let r = Session::builder()
                    .topology(&topo)
                    .workload((*workload).clone())
                    .strategy(strategy)
                    .horizon(cfg.duration)
                    .seed(cfg.seed)
                    .build()
                    .and_then(|s| s.run());
                let row = match r {
                    Ok(r) => format!("{}", r.delivered_bits.to_bits()),
                    Err(e) => format!("error: {e}"),
                };
                CellOutput::new().with_row([strategy.name().to_string(), row])
            });
        }
    }
    let t0 = Instant::now();
    let report = run_sweep(&spec, &RunnerConfig { threads });
    (secs_since(t0), report.rows)
}

fn traced_run(
    seed: u64,
    inputs: &Inputs,
    cells: &[Cell<'_>],
    out: &mut Outcome,
) -> Result<(), String> {
    let mut tracer = Tracer::new(true);
    // set-up layers, traced once
    tracer.begin("setup");
    let traced_inputs = generate(seed, &mut tracer);
    build_cells(&traced_inputs, &mut tracer)?;
    tracer.end();

    // untraced reps before and after the traced one: the baseline of
    // the tracing overhead
    let mut scratch = Timed::default();
    let t0 = Instant::now();
    let plain = rep(cells, &mut scratch)?;
    let mut untraced_wall = secs_since(t0);

    // traced rep: each cell runs with the capture probe and is replayed
    // right after, outside the session-run spans that make its wall time
    let mut acc = Replay::default();
    let mut reports = Vec::new();
    tracer.begin("workload.rep");
    for cell in cells {
        let mut capture = Capture::default();
        reports.push(run_cell(
            cell,
            &mut scratch,
            &mut tracer,
            &mut [&mut capture],
        )?);
        out.check(
            !capture.ops.is_empty(),
            "fluid capture recorded allocator calls",
        );
        let topo = cell.session.topology();
        let t0 = Instant::now();
        let strategy = cell.session.strategy().build_fluid(topo);
        tracer.leaf("topology.detour_table", t0, Instant::now());
        replay(topo, strategy.as_ref(), &capture.ops, &mut tracer, &mut acc)?;
    }
    tracer.end();
    let traced_wall = tracer.total("flowsim.session.run");
    let t0 = Instant::now();
    rep(cells, &mut scratch)?;
    untraced_wall = (untraced_wall + secs_since(t0)) / 2.0;
    out.check(
        acc.mismatches == 0,
        "replayed rates are bit-equal to the run's",
    );
    for (a, b) in plain.iter().zip(&reports) {
        out.check(accounted(b), "fluid cell flow accounting");
        out.check(
            fingerprint(a) == fingerprint(b),
            "probed run equals unprobed run",
        );
    }

    // runner pool: the same nine cells across 1 and 2 threads
    let (t1, rows1) = pool_sweep(inputs, 1);
    let (t2, rows2) = pool_sweep(inputs, 2);
    out.check(
        rows1 == rows2,
        "run_sweep rows identical at 1 and 2 threads",
    );
    let sequential: Vec<String> = plain
        .iter()
        .map(|r| format!("{}", r.delivered_bits.to_bits()))
        .collect();
    let pooled: Vec<String> = rows1.iter().map(|r| r[1].clone()).collect();
    out.check(
        sequential == pooled,
        "run_sweep cells equal the service runs",
    );

    let allocate = tracer.durations("flowsim.engine.allocate");
    let allocate_s: f64 = allocate.iter().sum();
    let paths_for_s = tracer.total("flowsim.strategy.paths_for");
    let calls = acc.calls.max(1) as f64;
    out.metric("flowsim.engine.allocate_s", allocate_s, "s");
    out.metric("flowsim.engine.allocate_calls", acc.calls as f64, "count");
    out.metric(
        "flowsim.engine.allocate_us_p50",
        quantile(&allocate, 0.5) * 1e6,
        "us",
    );
    out.metric(
        "flowsim.engine.allocate_us_p99",
        quantile(&allocate, 0.99) * 1e6,
        "us",
    );
    out.metric(
        "flowsim.engine.allocate_share",
        allocate_s / traced_wall,
        "ratio",
    );
    out.metric("flowsim.engine.fill_rounds", acc.rounds as f64, "count");
    out.metric(
        "flowsim.engine.active_flows_mean",
        acc.active_sum as f64 / calls,
        "count",
    );
    out.metric("flowsim.engine.flow_hops", acc.flow_hops as f64, "count");
    out.metric("flowsim.strategy.paths_for_s", paths_for_s, "s");
    out.metric(
        "flowsim.strategy.paths_for_calls",
        acc.paths_for_calls as f64,
        "count",
    );
    out.metric(
        "topology.detour_table_s",
        tracer.total("topology.detour_table"),
        "s",
    );
    out.metric(
        "topology.generate_s",
        tracer.total("topology.generate"),
        "s",
    );
    out.metric(
        "flowsim.sim.self_s",
        traced_wall - allocate_s - paths_for_s,
        "s",
    );
    out.metric("runner.pool.t1_s", t1, "s");
    out.metric("runner.pool.t2_s", t2, "s");
    out.metric("runner.pool.speedup_t2", t1 / t2, "ratio");
    out.metric("trace.wall_s", traced_wall, "s");
    out.metric("trace.untraced_wall_s", untraced_wall, "s");
    out.metric("trace.overhead_s", traced_wall - untraced_wall, "s");
    out.metric("trace.spans", tracer.len() as f64, "count");
    crate::write_spans(&tracer, "fluid-isp-overload")
}
