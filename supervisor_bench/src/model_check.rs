//! The `model_check` workload: the exhaustive Chord-KV no-bad-read check
//! on the work-stealing frontier engine, one whole check per unit.
//!
//! It never touches the Time Machine, the Scroll or the monitors, so a
//! supervisor change is predicted not to move it; it is here so the
//! frontier engine and its visited set, a working set far larger than
//! the caches, are measured too.

use std::sync::Arc;
use std::time::Instant;

use fixd_examples::chord::{ChordNode, ChordRing, KV_READ_MARK};
use fixd_investigator::parallel::explore_parallel;
use fixd_investigator::{
    explore_frontier, ExploreConfig, Explorer, FingerprintStore, Invariant, NetModel, StealQueue,
    TransitionSystem, WorldModel, WorldState,
};
use fixd_runtime::{Pid, Program};

use crate::measure::{ns, Outcome, SeedStream, UnitRun};

/// Ring members and writes per member: 3 × 2 gives a state space of a
/// few hundred thousand states.
const MEMBERS: usize = 3;
const PUTS: u32 = 2;
/// Far above the space, so a check that stops early shows as truncated.
const MAX_STATES: usize = 2_000_000;

pub struct CheckInputs {
    model: WorldModel,
    invariants: Vec<Invariant<WorldState>>,
    cfg: ExploreConfig,
    workers: usize,
}

/// The dense keyed-storage ring of
/// `crates/fixd-bench/tests/explore_chord_kv.rs`: no stabilize rounds or
/// lookups, the put/get/replicate traffic is the whole workload.
pub fn inputs(seed: u64, workers: usize) -> CheckInputs {
    let model_seed = SeedStream::new(seed, "model_check").next_seed();
    let model = WorldModel::new(model_seed, NetModel::reliable(), || {
        let members: Vec<Pid> = (0..MEMBERS as u32).map(Pid).collect();
        let ring = Arc::new(ChordRing::new(&members));
        (0..MEMBERS)
            .map(|_| {
                Box::new(ChordNode::new(Arc::clone(&ring), 0, 0).with_kv_workload(PUTS))
                    as Box<dyn Program>
            })
            .collect()
    });
    let invariants = vec![Invariant::new("no-bad-read", |s: &WorldState| {
        s.outputs()
            .iter()
            .all(|(_, p)| p.first() != Some(&KV_READ_MARK) || p.get(1) == Some(&1))
    })];
    let cfg = ExploreConfig {
        max_states: MAX_STATES,
        ..ExploreConfig::default()
    };
    CheckInputs {
        model,
        invariants,
        cfg,
        workers,
    }
}

/// The serial `Explorer`'s states and transitions: the reference every
/// timed check must match. Computed once, untimed.
struct Reference {
    states: usize,
    transitions: u64,
}

fn reference(inp: &CheckInputs) -> Result<Reference, String> {
    let mut ex = Explorer::new(&inp.model, inp.cfg.clone());
    for inv in &inp.invariants {
        ex = ex.invariant(inv.clone());
    }
    let r = ex.run();
    if r.truncated || !r.violations.is_empty() {
        return Err(format!(
            "serial reference truncated={} violations={}",
            r.truncated,
            r.violations.len()
        ));
    }
    Ok(Reference {
        states: r.states,
        transitions: r.transitions,
    })
}

fn verdict(
    r: &fixd_investigator::ExploreReport<fixd_investigator::ModelAction>,
    want: &Reference,
) -> Result<(), String> {
    if r.truncated {
        return Err("check truncated".into());
    }
    if !r.violations.is_empty() {
        return Err(format!("{} violations found", r.violations.len()));
    }
    if r.states != want.states || r.transitions != want.transitions {
        return Err(format!(
            "{} states / {} transitions, serial reference {} / {}",
            r.states, r.transitions, want.states, want.transitions
        ));
    }
    Ok(())
}

/// End-to-end run: the serial reference (untimed), then a closed loop
/// with one client, checks back to back until `seconds` have passed.
/// `between_windows` runs after every check, outside its timing.
pub fn measure(inp: &CheckInputs, seconds: f64, between_windows: &mut dyn FnMut()) -> Outcome {
    let mut out = Outcome::default();
    let want = match reference(inp) {
        Ok(r) => r,
        Err(why) => {
            out.attempted += 1;
            out.fail(format_args!("{why}"));
            return out;
        }
    };
    let mut run = UnitRun::new();
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        let r = explore_parallel(&inp.model, &inp.invariants, &inp.cfg, inp.workers);
        run.record(ns(t0.elapsed()));
        out.attempted += 1;
        run.steps += r.states as u64;
        run.close_window();
        if let Err(why) = verdict(&r, &want) {
            out.fail(format_args!("model check: {why}"));
        }
        between_windows();
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    run.report(&mut out, "model_check", "check", "states", "check");
    out
}

/// Traced profile: pairs of an untraced check and a check run on
/// `explore_frontier` directly, whose own metrics give the per-layer
/// figures. The serial reference runs first: it checks both, and it
/// warms the allocator the way it does before the untraced run.
pub fn profile(inp: &CheckInputs, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let want = match reference(inp) {
        Ok(r) => r,
        Err(why) => {
            out.attempted += 1;
            out.fail(format_args!("{why}"));
            return out;
        }
    };
    let (mut untraced_ns, mut traced_ns) = (0u64, 0u64);
    let (mut busy_ns, mut processed, mut states) = (0u64, 0u64, 0u64);
    let (mut steals, mut reexpansions, mut hits, mut lookups) = (0u64, 0u64, 0u64, 0u64);
    let mut max_share = Vec::new();
    let start = Instant::now();
    for round in 0.. {
        for pass in 0..2 {
            out.attempted += 1;
            let t0 = Instant::now();
            // Alternate which check runs first.
            if (pass + round) % 2 == 0 {
                let r = explore_parallel(&inp.model, &inp.invariants, &inp.cfg, inp.workers);
                untraced_ns += ns(t0.elapsed());
                if let Err(why) = verdict(&r, &want) {
                    out.fail(format_args!("model check: {why}"));
                }
                continue;
            }
            let store = FingerprintStore::new(|s: &WorldState| inp.model.fingerprint(s));
            let queue = StealQueue::new(inp.workers);
            let (r, m) = explore_frontier(
                &inp.model,
                &store,
                &queue,
                &inp.invariants,
                &inp.cfg,
                inp.workers,
            );
            traced_ns += ns(t0.elapsed());
            if let Err(why) = verdict(&r, &want) {
                out.fail(format_args!("traced model check: {why}"));
            }
            busy_ns += m.busy.iter().map(|d| ns(*d)).sum::<u64>();
            processed += m.processed.iter().sum::<u64>();
            states += r.states as u64;
            steals += m.steals;
            reexpansions += m.reexpansions;
            hits += m.dedup.hits;
            lookups += m.dedup.hits + m.dedup.misses;
            max_share.push(m.max_share());
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let checks = max_share.len() as f64;
    out.metric(
        "frontier.ns_per_state",
        busy_ns as f64 / processed.max(1) as f64,
        "ns",
    );
    out.metric(
        "frontier.max_share",
        max_share.iter().sum::<f64>() / checks,
        "ratio",
    );
    out.metric("frontier.steals", steals as f64 / checks, "count");
    out.metric(
        "frontier.reexpansions",
        reexpansions as f64 / checks,
        "count",
    );
    out.metric(
        "frontier.dedup_hit_rate",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    out.metric(
        "frontier.busy_share",
        busy_ns as f64 / (inp.workers as f64 * traced_ns.max(1) as f64),
        "ratio",
    );
    out.metric("frontier.states", states as f64 / checks, "count");
    out.metric(
        "trace.overhead",
        traced_ns as f64 / untraced_ns.max(1) as f64 - 1.0,
        "ratio",
    );
    out
}
