//! Fig. 4a-scale oracle gate for the incremental allocation engine.
//!
//! Runs the quick-mode Fig. 4a cells (the three ISP maps × SP/ECMP/URP)
//! through the session facade with a probe that records every flow
//! arrival, departure and allocation. Each cell's sequence is then
//! replayed into a fresh [`AllocEngine`], and every allocation is
//! recomputed from scratch by the reference [`max_min_allocate`]: flow
//! rates, subpath rates, `dir_used` and filling rounds must be `==`, and
//! the engine's rates must be the bits the run reported.
//!
//! The property tests cover small random cases; this gate covers the
//! shapes the paper's evaluation produces (hundreds of flows, dozens of
//! filling rounds per allocation). It takes minutes in a debug build, so
//! it is `#[ignore]`d there; run it with
//!
//! ```sh
//! cargo test --release --test allocator_oracle -- --include-ignored
//! ```

use std::collections::BTreeMap;

use inrpp::scenario::{build_workload, fig4_topologies, Fig4Config};
use inrpp::session::{AllocationEvent, FlowEnd, FlowStart, Probe, Session, SessionStrategy};
use inrpp_bench::experiments::quick_fig4_config;
use inrpp_flowsim::allocator::max_min_allocate;
use inrpp_flowsim::engine::AllocEngine;
use inrpp_topology::graph::NodeId;
use inrpp_topology::rocketfuel::generate_with_capacities;
use inrpp_topology::spath::Path;

/// One allocator-relevant event of a run, in order.
enum Op {
    Insert { flow: u64, src: NodeId, dst: NodeId },
    Remove { flow: u64 },
    Allocate { flows: Vec<u64>, rates: Vec<f64> },
}

/// Probe recording the run's allocator input/output sequence.
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

fn strategies(cfg: &Fig4Config) -> [SessionStrategy; 3] {
    [
        SessionStrategy::Sp,
        SessionStrategy::Ecmp,
        SessionStrategy::Urp(cfg.inrp),
    ]
}

#[test]
#[ignore = "minutes in a debug build; CI runs it in release"]
fn fig4a_allocations_match_reference_allocator() {
    let cfg = quick_fig4_config();
    let mut checked = 0usize;
    for isp in fig4_topologies() {
        let topo = generate_with_capacities(&isp.profile(), cfg.seed, cfg.capacities);
        let workload = build_workload(&topo, &cfg);
        for strategy in strategies(&cfg) {
            let cell = format!("{} / {}", isp.name(), strategy.name());
            let session = Session::builder()
                .topology(&topo)
                .workload(workload.clone())
                .strategy(strategy)
                .horizon(cfg.duration)
                .seed(cfg.seed)
                .build()
                .expect("Fig. 4a sessions are well-formed");
            let mut capture = Capture::default();
            session
                .run_probed(&mut [&mut capture])
                .expect("fluid engine accepts every strategy");
            let routing = strategy.build_fluid(&topo);
            let mut engine = AllocEngine::new(&topo);
            let mut active: BTreeMap<u64, Vec<Path>> = BTreeMap::new();
            for (at, op) in capture.ops.iter().enumerate() {
                match op {
                    Op::Insert { flow, src, dst } => {
                        let paths = routing.paths_for(&topo, *src, *dst, *flow);
                        engine.insert(*flow, &paths).expect("paths resolve");
                        active.insert(*flow, paths);
                    }
                    Op::Remove { flow } => {
                        engine.remove(*flow);
                        active.remove(flow);
                    }
                    Op::Allocate { flows, rates } => {
                        engine.allocate();
                        assert_eq!(engine.keys(), flows.as_slice(), "{cell}, op {at}");
                        assert_eq!(engine.flow_rates(), rates.as_slice(), "{cell}, op {at}");
                        let paths: Vec<Vec<Path>> = active.values().cloned().collect();
                        let reference = max_min_allocate(&topo, &paths);
                        assert_eq!(
                            engine.flow_rates(),
                            reference.flow_rates.as_slice(),
                            "{cell}, op {at}"
                        );
                        for (pos, want) in reference.subpath_rates.iter().enumerate() {
                            assert_eq!(
                                engine.subpath_rates(pos),
                                want.as_slice(),
                                "{cell}, op {at}"
                            );
                        }
                        assert_eq!(
                            engine.dir_used(),
                            reference.dir_used.as_slice(),
                            "{cell}, op {at}"
                        );
                        assert_eq!(engine.rounds(), reference.rounds, "{cell}, op {at}");
                        checked += 1;
                    }
                }
            }
        }
    }
    assert!(checked > 0, "the runs made no allocation");
}
