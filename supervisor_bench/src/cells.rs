//! The two campaign-cell workloads, `matrix` and `chord_kv`.
//!
//! Untraced, every cell runs through the public `run_cell` exactly as a
//! campaign would. Traced, the same cell is re-composed from the public
//! calls `run_cell` and `Fixd::supervise` make — build, supervisor set-up,
//! then `peek` → `TimeMachine::before_step` → `step` →
//! `TimeMachine::after_step` → `ScrollRecorder::observe` → monitors per
//! step, then the app check, the global snapshot and teardown — with a
//! span around each call. The re-composed cell must reproduce the
//! untraced outcome exactly, so the per-layer figures describe the
//! program the end-to-end figures measure.

use std::time::Instant;

use fixd_campaign::{
    chord_kv_app, run_cell, run_cell_sharded_timed, standard_matrix, CampaignReport, CampaignSpec,
    Cell, CellOutcome, FaultCase, Pathology,
};
use fixd_core::{DetectedFault, FixdConfig};
use fixd_runtime::{NetworkConfig, WorldConfig};
use fixd_scroll::{RecordConfig, ScrollRecorder};
use fixd_timemachine::TimeMachine;

use crate::measure::{ns, Outcome, SeedStream, UnitRun};

/// Seeds per matrix round: 56 supported (app, fault case) pairs × 40
/// seeds = 2240 cells of about 19 supervised steps each. Many seeds per
/// round keep the round's mix of cells, and so its cost, nearly the same
/// whatever the benchmark seed.
const MATRIX_SEEDS: usize = 40;
/// Chord-KV ring width: wide vector clocks and ~10k steps per cell.
const CHORD_N: usize = 256;
const CHORD_STABILIZE: u32 = 3;
const CHORD_PUTS: u32 = 2;
/// Seeds per chord_kv round (× clean and reorder = 4 cells, about a
/// third of a second: a rate window).
const CHORD_SEEDS: usize = 2;

/// A cell workload's inputs, built during set-up.
pub struct CellInputs {
    spec: CampaignSpec,
    cells: Vec<Cell>,
}

pub fn matrix_inputs(seed: u64) -> CellInputs {
    let seeds = SeedStream::new(seed, "matrix").take(MATRIX_SEEDS);
    let spec = standard_matrix(&seeds);
    let cells = spec.cells();
    CellInputs { spec, cells }
}

pub fn chord_kv_inputs(seed: u64) -> CellInputs {
    let seeds = SeedStream::new(seed, "chord_kv").take(CHORD_SEEDS);
    let spec = CampaignSpec::new()
        .app(chord_kv_app(CHORD_N, CHORD_STABILIZE, CHORD_PUTS))
        .case(FaultCase::net_only("clean", Pathology::Clean, NetworkConfig::default()).lossless())
        .case(
            FaultCase::net_only("reorder", Pathology::Reorder, NetworkConfig::jittery(1, 50))
                .lossless(),
        )
        .seeds(seeds);
    let cells = spec.cells();
    CellInputs { spec, cells }
}

/// Why a finished cell counts as failed, if it does.
fn cell_failure(out: &CellOutcome) -> Option<String> {
    if let Some(v) = &out.violation {
        return Some(format!("unexpected violation {v}"));
    }
    out.check_failure
        .as_ref()
        .map(|f| format!("app check failed: {f}"))
}

/// One round of every cell through `run_cell`, timed per cell.
fn untraced_round(inp: &CellInputs, run: &mut UnitRun) -> Vec<(usize, CellOutcome)> {
    let mut outs = Vec::with_capacity(inp.cells.len());
    for cell in &inp.cells {
        let t0 = Instant::now();
        let out = run_cell(&inp.spec, cell);
        run.record(ns(t0.elapsed()));
        run.steps += out.steps;
        outs.push((cell.index, out));
    }
    outs
}

/// Check a round: every cell passes, and the round's report equals the
/// first round's (the program is deterministic).
fn check_round(
    wl: &str,
    outs: Vec<(usize, CellOutcome)>,
    first: &mut Option<CampaignReport>,
    out: &mut Outcome,
) {
    out.attempted += outs.len() as u64;
    let mut bad = 0;
    for (i, c) in &outs {
        if let Some(why) = cell_failure(c) {
            bad += 1;
            out.fail(format_args!("{wl} cell {i} ({}/{}): {why}", c.app, c.case));
        }
    }
    let report = CampaignReport::from_cells(outs);
    match first {
        None => *first = Some(report),
        Some(r) if *r == report => {}
        Some(_) => {
            // A diverging round fails every cell that was not already
            // counted as failed.
            let diverged = report.total_cells() as u64 - bad;
            out.failed += diverged;
            eprintln!("FAILED: {wl} campaign report differs from the first round");
        }
    }
}

/// End-to-end run: closed loop, one client, rounds of every cell until
/// `seconds` have passed. `between_windows` runs after every round,
/// outside the timed cells.
pub fn measure(
    wl: &str,
    inp: &CellInputs,
    seconds: f64,
    between_windows: &mut dyn FnMut(),
) -> Outcome {
    let mut out = Outcome::default();
    let mut run = UnitRun::new();
    let mut first = None;
    let start = Instant::now();
    loop {
        let outs = untraced_round(inp, &mut run);
        run.close_window();
        check_round(wl, outs, &mut first, &mut out);
        between_windows();
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    run.report(&mut out, wl, "cell", "steps", "cell");
    out
}

/// Per-cell span totals of the re-composed supervise loop (ns).
#[derive(Default)]
struct Spans {
    build: u64,
    supervisor_new: u64,
    peek: u64,
    before_step: u64,
    step: u64,
    after_step: u64,
    observe: u64,
    monitors: u64,
    check: u64,
    snapshot: u64,
    teardown: u64,
    wall: u64,
}

impl Spans {
    fn covered(&self) -> u64 {
        self.build
            + self.supervisor_new
            + self.peek
            + self.before_step
            + self.step
            + self.after_step
            + self.observe
            + self.monitors
            + self.check
            + self.snapshot
            + self.teardown
    }

    fn add(&mut self, o: &Spans) {
        self.build += o.build;
        self.supervisor_new += o.supervisor_new;
        self.peek += o.peek;
        self.before_step += o.before_step;
        self.step += o.step;
        self.after_step += o.after_step;
        self.observe += o.observe;
        self.monitors += o.monitors;
        self.check += o.check;
        self.snapshot += o.snapshot;
        self.teardown += o.teardown;
        self.wall += o.wall;
    }
}

/// What the re-composed cell produced, for comparison with `run_cell`.
#[derive(Debug, PartialEq, Eq)]
struct Traced {
    steps: u64,
    scroll_entries: u64,
    checkpoints: u64,
    checkpoint_bytes: u64,
    fingerprint: u64,
    violation: Option<String>,
    check_failure: Option<String>,
}

impl Traced {
    fn of(o: &CellOutcome) -> Self {
        Self {
            steps: o.steps,
            scroll_entries: o.scroll_entries,
            checkpoints: o.checkpoints,
            checkpoint_bytes: o.checkpoint_bytes,
            fingerprint: o.fingerprint,
            violation: o.violation.clone(),
            check_failure: o.check_failure.clone(),
        }
    }
}

/// `run_cell` re-composed from public calls, with a span at each layer
/// boundary. Monitors are evaluated after every step (`check_every` = 1,
/// the default `run_cell` uses).
fn traced_cell(spec: &CampaignSpec, cell: &Cell) -> (Traced, Spans) {
    let mut sp = Spans::default();
    let t_cell = Instant::now();

    let app = &spec.apps[cell.app];
    let case = &spec.cases[cell.case];
    let mut cfg = WorldConfig::seeded(cell.seed);
    cfg.net = case.net.clone();
    let mut world = (app.build)(cfg);
    let n = world.num_procs();
    world.set_fault_plan((case.plan)(n, cell.seed));
    let t = Instant::now();
    sp.build = ns(t - t_cell);

    let fcfg = FixdConfig::seeded(cell.seed);
    let mut tm = TimeMachine::new(n, fcfg.tm_config());
    let mut scroll = ScrollRecorder::new(
        n,
        RecordConfig {
            record_drops: fcfg.record_drops,
        },
    );
    let monitors = (app.monitors)();
    let mut t0 = Instant::now();
    sp.supervisor_new = ns(t0 - t);

    let mut steps = 0u64;
    let mut fault = None;
    while steps < spec.max_steps {
        let ev = world.peek();
        let t1 = Instant::now();
        sp.peek += ns(t1 - t0);
        let Some(ev) = ev else {
            t0 = t1;
            break;
        };
        tm.before_step(&mut world, &ev);
        let t2 = Instant::now();
        sp.before_step += ns(t2 - t1);
        let rec = world.step();
        let t3 = Instant::now();
        sp.step += ns(t3 - t2);
        let Some(rec) = rec else {
            t0 = t3;
            break;
        };
        tm.after_step(&mut world, &rec);
        let t4 = Instant::now();
        sp.after_step += ns(t4 - t3);
        scroll.observe(&world, &rec);
        let t5 = Instant::now();
        sp.observe += ns(t5 - t4);
        drop(rec);
        let t6 = Instant::now();
        sp.step += ns(t6 - t5);
        steps += 1;
        // First violated monitor wins, as in `Fixd::supervise`.
        fault = monitors.iter().find_map(|m| {
            m.violated_in(&world).map(|pid| DetectedFault {
                monitor: m.name.clone(),
                pid,
                at: world.now(),
                after_steps: steps,
            })
        });
        t0 = Instant::now();
        sp.monitors += ns(t0 - t6);
        if fault.is_some() {
            break;
        }
    }

    let check = (app.check)(&world, case, fault.as_ref());
    let t7 = Instant::now();
    sp.check = ns(t7 - t0);
    let fingerprint = world.global_snapshot().fingerprint();
    let t8 = Instant::now();
    sp.snapshot = ns(t8 - t7);
    let traced = Traced {
        steps,
        scroll_entries: scroll.store().total_entries() as u64,
        checkpoints: tm.total_checkpoints() as u64,
        checkpoint_bytes: tm.total_checkpoint_bytes() as u64,
        fingerprint,
        violation: fault.map(|f| f.monitor),
        check_failure: check.failure,
    };
    let t9 = Instant::now();
    drop(monitors);
    drop(scroll);
    drop(tm);
    drop(world);
    let t10 = Instant::now();
    sp.teardown = ns(t10 - t9);
    sp.wall = ns(t10 - t_cell);
    (traced, sp)
}

/// Totals of a traced profile of one cell workload.
#[derive(Default)]
struct Profile {
    spans: Spans,
    cells: u64,
    steps: u64,
    scroll_entries: u64,
    checkpoints: u64,
    checkpoint_bytes: u64,
    untraced_ns: u64,
    sharded: Option<ShardRecord>,
}

/// The measured sharded-path record (chord_kv only).
#[derive(Default)]
struct ShardRecord {
    shards: usize,
    cells: u64,
    serial_ns: u64,
    wall_ns: u64,
    exec_s: f64,
    supervise_s: f64,
    fallbacks: u64,
}

/// Traced profile: alternate an untraced round (reference outcomes and
/// the overhead baseline) with a traced round of the same cells, until
/// `seconds` have passed. With `shards` set, every cell also runs through
/// `run_cell_sharded_timed` and must equal its serial outcome.
pub fn profile(wl: &str, inp: &CellInputs, seconds: f64, shards: Option<usize>) -> Outcome {
    let mut out = Outcome::default();
    let mut p = Profile {
        sharded: shards.map(|s| ShardRecord {
            shards: s,
            ..ShardRecord::default()
        }),
        ..Profile::default()
    };
    let mut first = None;
    let start = Instant::now();
    for round in 0.. {
        // Alternate which pass runs first, so neither always meets the
        // caches the other left warm.
        let mut run = UnitRun::new();
        let mut traced = Vec::with_capacity(inp.cells.len());
        let mut outs = Vec::new();
        for pass in 0..2 {
            if (pass + round) % 2 == 0 {
                outs = untraced_round(inp, &mut run);
                p.untraced_ns += run.busy_ns();
            } else {
                traced.extend(inp.cells.iter().map(|c| traced_cell(&inp.spec, c)));
            }
        }
        for (cell, (got, sp)) in inp.cells.iter().zip(traced) {
            let want = &outs[cell.index].1;
            if got != Traced::of(want) {
                out.fail(format_args!(
                    "{wl} cell {}: traced loop diverged from run_cell: {got:?} != {:?}",
                    cell.index,
                    Traced::of(want)
                ));
            }
            p.spans.add(&sp);
            p.cells += 1;
            p.steps += got.steps;
            p.scroll_entries += got.scroll_entries;
            p.checkpoints += got.checkpoints;
            p.checkpoint_bytes += got.checkpoint_bytes;
        }
        if let Some(rec) = p.sharded.as_mut() {
            for (cell, (_, want)) in inp.cells.iter().zip(&outs) {
                let t0 = Instant::now();
                let (got, timing) = run_cell_sharded_timed(&inp.spec, cell, rec.shards);
                rec.wall_ns += ns(t0.elapsed());
                rec.exec_s += timing.exec_secs;
                rec.supervise_s += timing.supervise_secs;
                rec.fallbacks += u64::from(timing.serial);
                rec.cells += 1;
                if got != *want {
                    out.fail(format_args!(
                        "{wl} cell {}: outcome at {} shards differs from serial",
                        cell.index, rec.shards
                    ));
                }
            }
            rec.serial_ns += run.busy_ns();
        }
        check_round(wl, outs, &mut first, &mut out);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    p.report(&mut out);
    out
}

impl Profile {
    fn report(&self, out: &mut Outcome) {
        let s = &self.spans;
        let steps = self.steps.max(1) as f64;
        let cells = self.cells.max(1) as f64;
        let per_step = |v: u64| v as f64 / steps;
        let per_cell_us = |v: u64| v as f64 / cells / 1e3;
        out.metric("tm.before_step_ns_per_step", per_step(s.before_step), "ns");
        out.metric("tm.after_step_ns_per_step", per_step(s.after_step), "ns");
        out.metric(
            "tm.checkpoints_per_step",
            self.checkpoints as f64 / steps,
            "count",
        );
        out.metric(
            "tm.checkpoint_bytes_per_cell",
            self.checkpoint_bytes as f64 / cells,
            "bytes",
        );
        out.metric("runtime.step_ns_per_step", per_step(s.step), "ns");
        out.metric("runtime.peek_ns_per_step", per_step(s.peek), "ns");
        out.metric("runtime.build_us_per_cell", per_cell_us(s.build), "us");
        out.metric(
            "runtime.snapshot_us_per_cell",
            per_cell_us(s.snapshot),
            "us",
        );
        out.metric(
            "runtime.teardown_us_per_cell",
            per_cell_us(s.teardown),
            "us",
        );
        out.metric(
            "core.supervisor_new_us_per_cell",
            per_cell_us(s.supervisor_new),
            "us",
        );
        out.metric("scroll.observe_ns_per_step", per_step(s.observe), "ns");
        out.metric(
            "scroll.entries_per_step",
            self.scroll_entries as f64 / steps,
            "count",
        );
        out.metric("monitors.check_ns_per_step", per_step(s.monitors), "ns");
        out.metric("campaign.check_us_per_cell", per_cell_us(s.check), "us");
        out.metric(
            "campaign.steps_per_cell",
            self.steps as f64 / cells,
            "count",
        );
        out.metric(
            "campaign.unattributed_share",
            (s.wall - s.covered().min(s.wall)) as f64 / s.wall.max(1) as f64,
            "ratio",
        );
        out.metric(
            "trace.overhead",
            s.wall as f64 / self.untraced_ns.max(1) as f64 - 1.0,
            "ratio",
        );
        if let Some(r) = &self.sharded {
            let wall_s = r.wall_ns as f64 / 1e9;
            let n = r.cells.max(1) as f64;
            out.metric(
                "shard.wall_vs_serial",
                r.wall_ns as f64 / r.serial_ns.max(1) as f64,
                "ratio",
            );
            out.metric("shard.exec_s", r.exec_s / n, "s");
            out.metric("shard.supervise_s", r.supervise_s / n, "s");
            out.metric(
                "shard.modelled_vs_measured",
                (r.exec_s + r.supervise_s) / wall_s.max(f64::MIN_POSITIVE),
                "ratio",
            );
            out.metric("shard.serial_fallbacks", r.fallbacks as f64, "count");
            out.note(format!(
                "shard record: {} cells at {} shards, {:.3} s measured wall vs {:.3} s serial",
                r.cells,
                r.shards,
                wall_s,
                r.serial_ns as f64 / 1e9
            ));
        }
    }
}
