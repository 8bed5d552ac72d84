//! `fanin-64`: the daemon's engine in-process. Bursts of 64 grouped-cnn
//! tenants (one shared weight `Arc`, seeded inputs) arrive at a
//! `SessionManager` under seeded 0/1-round gaps, with admission cap 8
//! and one step worker per core. The benchmark drives `step_round` and
//! `harvest_terminal` itself and times each tenant from the start of its
//! release round to its harvest.

use std::sync::Arc;
use std::time::Instant;

use seculator_compute::quant::QTensor3;
use seculator_core::{
    campaign_models, infer_plain, AdmitSpec, QConvLayer, RecoveryPolicy, SessionManager,
};
use seculator_crypto::keys::DeviceSecret;

use crate::stats::{median, percentile, sorted, Sample};
use crate::{host, metric, Cfg, Raw, Rng};

/// Tenants per burst.
pub const BURST: u32 = 64;
/// Admission cap (the daemon's).
const CAP: usize = 8;

struct Model {
    layers: Arc<Vec<QConvLayer>>,
    shape: (usize, usize, usize),
    shift: u32,
    root: DeviceSecret,
}

impl Model {
    fn load(seed: u64) -> Self {
        let m = campaign_models()
            .into_iter()
            .find(|m| m.name == "grouped-cnn")
            .expect("the campaign zoo has grouped-cnn");
        Self {
            shape: (m.input.c, m.input.h, m.input.w),
            shift: m.session.shift,
            layers: Arc::new(m.layers),
            root: DeviceSecret::from_seed(Rng::derive(seed, 1).next_u64()),
        }
    }

    fn manager(&self, seed: u64, burst: u64) -> SessionManager {
        let mut mgr = SessionManager::new(
            self.root,
            Rng::derive(seed, burst.wrapping_add(0x3000_0000)).next_u64(),
            self.shift,
            RecoveryPolicy::default(),
            CAP,
        );
        mgr.set_step_workers(host::nproc());
        mgr
    }

    fn input(&self, seed: u64, burst: u64, tenant: u32) -> QTensor3 {
        let (c, h, w) = self.shape;
        let label = (burst << 8) | u64::from(tenant);
        QTensor3::seeded(
            c,
            h,
            w,
            Rng::derive(seed, label.wrapping_add(0x4000_0000)).next_u64(),
        )
    }

    fn admit(&self, mgr: &mut SessionManager, tenant: u32, input: QTensor3, arrival_round: u64) {
        mgr.admit(AdmitSpec {
            tenant,
            name: "grouped-cnn".into(),
            layers: Arc::clone(&self.layers),
            input,
            arrival_round,
            injector: None,
            deadline_rounds: None,
            crash_cuts: Vec::new(),
            nonce_salt: 0,
            home_dir: None,
        });
    }
}

/// Traced-pass figures.
#[derive(Default)]
struct Layer {
    admit_us: Vec<f64>,
    round_us: Vec<f64>,
    harvest_us: Vec<f64>,
    live: Vec<f64>,
    queue_rounds: Vec<f64>,
    rounds: u64,
    bursts: u64,
    pads: u64,
    sched_ns: u64,
    wall_s: f64,
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// One burst's inputs and seeded 0/1-round arrival gaps.
fn plan(m: &Model, seed: u64, burst: u64) -> Vec<(QTensor3, u64)> {
    let mut rng = Rng::derive(seed, burst.wrapping_add(0x5000_0000));
    let mut arrival = 1u64;
    (0..BURST)
        .map(|j| {
            if j > 0 {
                arrival += rng.next_u64() & 1;
            }
            (m.input(seed, burst, j), arrival)
        })
        .collect()
}

/// What serving one burst produced.
struct Served {
    outputs: Vec<Option<QTensor3>>,
    /// `(offset from the burst's start in s, latency in ms)` per tenant.
    samples: Vec<Sample>,
    wall_s: f64,
    cpu_s: f64,
    /// Tenants with a missing or wrong output.
    failed: u64,
    errors: Vec<String>,
}

/// Latency samples reserved for a run: 16 MB of address space, more
/// than a 60 s run completes.
const SAMPLE_RESERVE: usize = 1 << 20;

/// Serves one planned burst on a fresh manager; `tr` collects the
/// traced figures.
fn serve(
    m: &Model,
    seed: u64,
    burst: u64,
    plan: &[(QTensor3, u64)],
    mut tr: Option<&mut Layer>,
) -> Served {
    let mut mgr = m.manager(seed, burst);
    let mut out = Served {
        outputs: vec![None; plan.len()],
        samples: Vec::with_capacity(plan.len()),
        wall_s: 0.0,
        cpu_s: 0.0,
        failed: 0,
        errors: Vec::new(),
    };
    let cpu0 = host::self_cpu();
    let t0 = Instant::now();
    for (j, (x, a)) in plan.iter().enumerate() {
        let t = Instant::now();
        m.admit(&mut mgr, j as u32, x.clone(), *a);
        if let Some(tr) = tr.as_deref_mut() {
            tr.admit_us.push(us(t));
        }
    }
    // round_start[r] = wall time round r began (rounds count from 1).
    let mut round_start = vec![t0];
    loop {
        let live = tr.is_some().then(|| mgr.live_sessions() as f64);
        let t = Instant::now();
        if !mgr.step_round() {
            break;
        }
        round_start.push(t);
        let round_us = us(t);
        let th = Instant::now();
        let harvested = mgr.harvest_terminal();
        let done = Instant::now();
        if let Some(tr) = tr.as_deref_mut() {
            tr.live.extend(live);
            tr.round_us.push(round_us);
            tr.harvest_us.push(us(th));
        }
        for o in harvested {
            let release = usize::try_from(o.arrival_round.max(1)).unwrap_or(usize::MAX);
            let Some(start) = round_start.get(release) else {
                out.errors
                    .push(format!("tenant {} released at unknown round", o.tenant));
                continue;
            };
            out.samples.push((
                done.duration_since(t0).as_secs_f64(),
                done.duration_since(*start).as_secs_f64() * 1e3,
            ));
            if let Some(tr) = tr.as_deref_mut() {
                tr.queue_rounds
                    .push(o.started_round.saturating_sub(o.arrival_round) as f64);
            }
            out.outputs[o.tenant as usize] = o.output().cloned();
        }
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out.cpu_s = (host::self_cpu() - cpu0).as_secs_f64();
    if let Some(tr) = tr {
        tr.rounds += (round_start.len() - 1) as u64;
        tr.bursts += 1;
        tr.pads += mgr.pads_issued();
        tr.sched_ns += mgr.scheduler_ns();
        tr.wall_s += out.wall_s;
    }
    if mgr.pad_collisions() != 0 {
        out.errors.push(format!(
            "burst {burst}: {} pad collisions",
            mgr.pad_collisions()
        ));
    }
    // Checked after the clock stops: every output equals infer_plain.
    for (j, ((x, _), o)) in plan.iter().zip(&out.outputs).enumerate() {
        if o.as_ref() != Some(&infer_plain(&m.layers, x, m.shift)) {
            out.failed += 1;
            out.errors.push(format!(
                "burst {burst} tenant {j}: output differs from infer_plain"
            ));
        }
    }
    out
}

/// Runs the workload.
pub fn run(cfg: &Cfg) -> Result<Raw, String> {
    let mut raw = Raw::default();
    let mut model = None;
    for k in 0..cfg.setups.max(1) {
        // Set-up: weights and one warm-up burst (the first burst of a
        // process pays for thread and allocator warm-up).
        let t = Instant::now();
        let m = Model::load(cfg.seed);
        let warm = u64::MAX - k as u64;
        let served = serve(&m, cfg.seed, warm, &plan(&m, cfg.seed, warm), None);
        raw.setup_s.push(t.elapsed().as_secs_f64());
        if let Some(e) = served.errors.first() {
            return Err(format!("fanin-64 warm-up burst: {e}"));
        }
        model = Some(m);
    }
    let m = model.ok_or("no set-up")?;
    // Latency samples are stored up front: the untouched reserve costs no
    // RSS, and a growing vector's reallocations would put a run-to-run
    // jump of a few MB into the process's `VmHWM` (`peak_rss_mb`).
    raw.samples.reserve(SAMPLE_RESERVE);
    let mut tr = Layer::default();
    let deadline = Instant::now() + cfg.budget();
    let mut burst = 0u64;
    // Serving clock: advances only while a burst is being served.
    let mut clock = 0.0;
    while burst == 0 || Instant::now() < deadline {
        let plan = plan(&m, cfg.seed, burst);
        let served = serve(&m, cfg.seed, burst, &plan, cfg.traced.then_some(&mut tr));
        raw.attempted += plan.len() as u64;
        raw.failed += served.failed;
        raw.samples
            .extend(served.samples.iter().map(|(at, lat)| (clock + at, *lat)));
        clock += served.wall_s;
        raw.cpu_s += served.cpu_s;
        raw.errors.extend(served.errors);
        burst += 1;
    }
    raw.peak_rss_kb = host::status_kb("self", "VmHWM")?;
    raw.notes.push(("bursts".into(), burst.to_string()));
    if cfg.traced {
        let sessions = (tr.bursts * u64::from(BURST)) as f64;
        let round = sorted(tr.round_us.clone());
        let queue = sorted(tr.queue_rounds.clone());
        raw.layers.extend([
            metric("session.admit_us", median(&tr.admit_us), "us"),
            metric("session.round_us_p50", percentile(&round, 50.0), "us"),
            metric("session.round_us_p99", percentile(&round, 99.0), "us"),
            metric("session.harvest_us", median(&tr.harvest_us), "us"),
            metric(
                "session.rounds_per_burst",
                tr.rounds as f64 / tr.bursts as f64,
                "count",
            ),
            metric(
                "session.live_per_round",
                tr.live.iter().sum::<f64>() / tr.live.len() as f64,
                "count",
            ),
            metric(
                "session.queue_rounds_p99",
                percentile(&queue, 99.0),
                "count",
            ),
            metric(
                "session.pads_per_session",
                tr.pads as f64 / sessions,
                "count",
            ),
            metric(
                "session.scheduler_share",
                tr.sched_ns as f64 / 1e9 / tr.wall_s,
                "ratio",
            ),
        ]);
    }
    Ok(raw)
}
