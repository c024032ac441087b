//! The `heal` workload: the paper's recoverability loop on the
//! replicated KV store, one full episode per unit.
//!
//! An episode builds the client/primary/buggy-backup world over a
//! reordering network, supervises it until the gap monitor fires, then
//! runs `Fixd::diagnose` (roll back + investigate), `Fixd::heal_update`
//! on the backup, and supervises again to quiescence. It passes when the
//! investigation reproduced the fault and the healed backup converged to
//! the primary.

use std::time::Instant;

use fixd_core::{DetectedFault, Fixd, FixdConfig};
use fixd_examples::kvstore::{backup_patch, gap_monitor, kv_world, script, BackupV2, Primary};
use fixd_healer::Patch;
use fixd_runtime::{Pid, World};

use crate::measure::{ns, Outcome, SeedStream, UnitRun};

/// Client operations per episode: long enough that the jitter reorders
/// the replication stream in every episode.
const SCRIPT_OPS: usize = 64;
/// Network latency jitter range (reorders replication messages).
const JITTER: (u64, u64) = (1, 80);
/// Distinct episode inputs generated during set-up. The closed loop
/// cycles through them, and one pass over the pool is one rate window,
/// so every window runs the same episodes.
const POOL: usize = 64;
/// Supervision budgets, as in `examples/kvstore_heal.rs`.
const DETECT_BUDGET: u64 = 10_000;
const RESUME_BUDGET: u64 = 100_000;
/// The buggy backup.
const BACKUP: Pid = Pid(2);

/// One episode's input.
struct Episode {
    seed: u64,
    script: Vec<(u8, u8)>,
}

pub struct HealInputs {
    episodes: Vec<Episode>,
    patch: Patch,
}

pub fn inputs(seed: u64) -> HealInputs {
    let mut seeds = SeedStream::new(seed, "heal");
    let episodes = (0..POOL)
        .map(|_| Episode {
            seed: seeds.next_seed(),
            script: script(SCRIPT_OPS, seeds.next_seed()),
        })
        .collect();
    HealInputs {
        episodes,
        patch: backup_patch(),
    }
}

fn build(ep: &Episode) -> (World, Fixd) {
    let world = kv_world(ep.seed, ep.script.clone(), JITTER);
    let fixd = Fixd::new(3, FixdConfig::seeded(ep.seed)).monitor(gap_monitor());
    (world, fixd)
}

/// Did the healed world converge: no fault, quiescent, and the fixed
/// backup holds the primary's store with no sequence gaps?
fn converged(world: &World, fault: Option<&DetectedFault>, quiescent: bool) -> Result<(), String> {
    if let Some(f) = fault {
        return Err(format!("fault after heal: {}", f.monitor));
    }
    if !quiescent {
        return Err("not quiescent after heal".into());
    }
    let primary = &world
        .program::<Primary>(Pid(1))
        .ok_or("primary missing")?
        .store;
    let backup = world
        .program::<BackupV2>(BACKUP)
        .ok_or("backup was not updated to v2")?;
    if &backup.store != primary {
        return Err("backup store differs from the primary".into());
    }
    if backup.applied != backup.applied_count {
        return Err("backup applied with gaps".into());
    }
    Ok(())
}

/// Span totals of traced episodes (ns). The spans are contiguous, so
/// together they cover each episode's whole wall time.
#[derive(Default)]
struct Spans {
    build: u64,
    detect: u64,
    diagnose: u64,
    update: u64,
    resume: u64,
    verify: u64,
    teardown: u64,
    wall: u64,
}

#[derive(Default)]
struct Counts {
    steps: u64,
    states: u64,
    salvaged: u64,
}

/// Run one episode; with `spans` the same calls are timed one by one.
fn episode(ep: &Episode, patch: &Patch, spans: Option<&mut Spans>) -> Result<Counts, String> {
    let t0 = Instant::now();
    let (mut world, mut fixd) = build(ep);
    let t1 = Instant::now();
    let first = fixd.supervise(&mut world, DETECT_BUDGET);
    let t2 = Instant::now();
    let fault = first.fault.ok_or("no fault detected")?;
    let report = fixd
        .diagnose(&mut world, fault)
        .map_err(|e| format!("diagnose: {e}"))?;
    let t3 = Instant::now();
    if !report.reproduced() {
        return Err("investigation did not reproduce the fault".into());
    }
    let heal = fixd
        .heal_update(&mut world, BACKUP, patch)
        .map_err(|e| format!("heal_update: {e:?}"))?;
    let t4 = Instant::now();
    let end = fixd.supervise(&mut world, RESUME_BUDGET);
    let t5 = Instant::now();
    converged(&world, end.fault.as_ref(), end.quiescent)?;
    let t6 = Instant::now();
    drop(fixd);
    drop(world);
    let t7 = Instant::now();
    if let Some(sp) = spans {
        sp.build += ns(t1 - t0);
        sp.detect += ns(t2 - t1);
        sp.diagnose += ns(t3 - t2);
        sp.update += ns(t4 - t3);
        sp.resume += ns(t5 - t4);
        sp.verify += ns(t6 - t5);
        sp.teardown += ns(t7 - t6);
        sp.wall += ns(t7 - t0);
    }
    Ok(Counts {
        steps: first.steps + end.steps,
        states: report.states_explored as u64,
        salvaged: heal.salvaged_events,
    })
}

/// End-to-end run: closed loop, one client, passes over the episode
/// pool until `seconds` have passed. `between_windows` runs after every
/// pass, outside the timed episodes.
pub fn measure(inp: &HealInputs, seconds: f64, between_windows: &mut dyn FnMut()) -> Outcome {
    let mut out = Outcome::default();
    let mut run = UnitRun::new();
    let start = Instant::now();
    loop {
        for ep in &inp.episodes {
            let t0 = Instant::now();
            let res = episode(ep, &inp.patch, None);
            run.record(ns(t0.elapsed()));
            out.attempted += 1;
            match res {
                Ok(c) => run.steps += c.steps,
                Err(why) => out.fail(format_args!("heal episode (seed {}): {why}", ep.seed)),
            }
        }
        run.close_window();
        between_windows();
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    run.report(&mut out, "heal", "episode", "steps", "recover");
    out
}

/// Traced profile: rounds over the episode pool, each with an untraced
/// pass (the overhead baseline) and a traced pass. Diagnose is split into
/// `respond` and `investigate` on a replica of each episode: the same
/// deterministic world supervised to the same fault, whose investigation
/// must explore as many states as the episode's own diagnosis did.
pub fn profile(inp: &HealInputs, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut sp = Spans::default();
    let mut counts = Counts::default();
    let (mut respond_ns, mut explore_ns, mut undone) = (0u64, 0u64, 0u64);
    let mut untraced_ns = 0u64;
    let mut episodes = 0u64;
    let start = Instant::now();
    for round in 0.. {
        let batch = &inp.episodes;
        // Alternate which pass runs first, so neither always meets the
        // caches the other left warm.
        let mut traced = Vec::with_capacity(batch.len());
        for pass in 0..2 {
            if (pass + round) % 2 == 0 {
                for ep in batch {
                    let t0 = Instant::now();
                    let res = episode(ep, &inp.patch, None);
                    untraced_ns += ns(t0.elapsed());
                    out.attempted += 1;
                    if let Err(why) = res {
                        out.fail(format_args!("heal episode (seed {}): {why}", ep.seed));
                    }
                }
            } else {
                traced.extend(
                    batch
                        .iter()
                        .map(|ep| episode(ep, &inp.patch, Some(&mut sp))),
                );
            }
        }
        for (ep, res) in batch.iter().zip(traced) {
            out.attempted += 1;
            let c = match res {
                Ok(c) => c,
                Err(why) => {
                    out.fail(format_args!(
                        "traced heal episode (seed {}): {why}",
                        ep.seed
                    ));
                    continue;
                }
            };
            episodes += 1;
            let (mut world, mut fixd) = build(ep);
            let Some(fault) = fixd.supervise(&mut world, DETECT_BUDGET).fault else {
                out.fail(format_args!("replica (seed {}) detected no fault", ep.seed));
                continue;
            };
            let t1 = Instant::now();
            let resp = fixd.respond(&mut world, &fault);
            let t2 = Instant::now();
            let resp = match resp {
                Ok(r) => r,
                Err(e) => {
                    out.fail(format_args!("replica (seed {}) respond: {e}", ep.seed));
                    continue;
                }
            };
            undone += resp.rollback.events_undone;
            let t3 = Instant::now();
            let explored = fixd.investigate(resp.state);
            let t4 = Instant::now();
            respond_ns += ns(t2 - t1);
            explore_ns += ns(t4 - t3);
            if explored.states as u64 != c.states {
                out.fail(format_args!(
                    "replica (seed {}) explored {} states, the episode {}",
                    ep.seed, explored.states, c.states
                ));
            }
            counts.steps += c.steps;
            counts.states += c.states;
            counts.salvaged += c.salvaged;
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let n = episodes.max(1) as f64;
    let us = |v: u64| v as f64 / n / 1e3;
    out.metric("runtime.build_us", us(sp.build), "us");
    out.metric("core.detect_us", us(sp.detect), "us");
    out.metric("core.diagnose_us", us(sp.diagnose), "us");
    out.metric("core.respond_us", us(respond_ns), "us");
    out.metric("tm.events_undone", undone as f64 / n, "count");
    out.metric("investigator.explore_us", us(explore_ns), "us");
    out.metric(
        "investigator.states_per_episode",
        counts.states as f64 / n,
        "count",
    );
    out.metric("healer.update_us", us(sp.update), "us");
    out.metric(
        "healer.salvaged_events",
        counts.salvaged as f64 / n,
        "count",
    );
    out.metric("core.resume_us", us(sp.resume), "us");
    out.metric("core.steps_per_episode", counts.steps as f64 / n, "count");
    out.metric(
        "trace.overhead",
        sp.wall as f64 / untraced_ns.max(1) as f64 - 1.0,
        "ratio",
    );
    out
}
