//! `infer-mid`: one tenant at a time through a `SessionManager` (RAM
//! journal), closed loop, on a seeded six-layer 3×3 conv stack. Each
//! secure inference is paired with `infer_plain` on the same input, so
//! the traced pass gives the software Fig. 7 ratio per layer.

use std::sync::Arc;
use std::time::Instant;

use seculator_compute::quant::{qconv2d_grouped, QTensor3, QTensor4};
use seculator_core::mac_verify::EagerLayerVerifier;
use seculator_core::secure_memory::{BlockCoords, CryptoDatapath};
use seculator_core::{
    infer_plain, AdmitSpec, QConvLayer, RecoveryPolicy, SessionManager, SessionVerdict,
};
use seculator_crypto::keys::DeviceSecret;

use crate::shapes::{input_shapes, macs, tile_blocks, Shape};
use crate::stats::{median, Reconciliation, Trace};
use crate::{host, metric, Cfg, Raw, Rng};

/// Input feature map: 3 × 32 × 32.
pub const INPUT: Shape = (3, 32, 32);

/// Requantization shift. An output sums `n = c · 9` products of int8
/// values, so a layer scales the activation spread by about
/// `73 · √n / 2^SHIFT`; with 10 that gain stays within 0.4–1.7 for every
/// layer of the stack (n = 27…576), and activations neither collapse to
/// 0 nor saturate at ±127.
pub const SHIFT: u32 = 10;

/// `(out channels, in channels, stride)` per layer: 16 → 64 channels
/// with two stride-2 stages.
const STACK: [(usize, usize, usize); 6] = [
    (16, 3, 1),
    (16, 16, 1),
    (32, 16, 2),
    (32, 32, 1),
    (64, 32, 2),
    (64, 64, 1),
];

/// Sessions one manager serves before it is replaced, which bounds the
/// manager-lifetime pad ledger (and so the RSS) however long a run is.
const SESSIONS_PER_MANAGER: u64 = 16;

/// Distinct inputs a run cycles through. Each input's plain chain is
/// computed once, at its first use, and checks every later secure
/// inference of that input (each a fresh session with its own nonce), so
/// the closed loop spends its time on secure inferences.
const INPUT_POOL: u64 = 64;

/// A layer whose outputs are at least this share zero or saturated has
/// collapsed: value-dependent work would look cheaper than it is.
const COLLAPSE_SHARE: f64 = 0.5;

/// The seeded network, two channel groups per layer.
#[must_use]
pub fn network(seed: u64) -> Vec<QConvLayer> {
    STACK
        .iter()
        .enumerate()
        .map(|(i, &(k, c, stride))| {
            let half = c / 2;
            QConvLayer {
                weights: QTensor4::seeded(k, c, 3, 3, Rng::derive(seed, 100 + i as u64).next_u64()),
                stride,
                channel_groups: vec![0..half, half..c],
            }
        })
        .collect()
}

/// MACs of one inference, from the layer shapes.
#[must_use]
pub fn macs_per_infer(layers: &[QConvLayer]) -> u64 {
    layers
        .iter()
        .zip(input_shapes(layers, INPUT))
        .map(|(l, s)| macs(l, s))
        .sum()
}

fn input(seed: u64, i: u64) -> QTensor3 {
    let (c, h, w) = INPUT;
    QTensor3::seeded(
        c,
        h,
        w,
        Rng::derive(seed, i.wrapping_add(0x1000_0000)).next_u64(),
    )
}

/// Share of a tensor's values that are 0 or saturated.
fn zero_or_sat_share(t: &QTensor3) -> f64 {
    let mut n = 0usize;
    for c in 0..t.c {
        for y in 0..t.h {
            for x in 0..t.w {
                let v = t.get(c, y, x);
                if v == 0 || v == i8::MIN || v == i8::MAX {
                    n += 1;
                }
            }
        }
    }
    n as f64 / (t.c * t.h * t.w) as f64
}

struct Server {
    seed: u64,
    root: DeviceSecret,
    layers: Arc<Vec<QConvLayer>>,
    mgr: SessionManager,
    served: u64,
}

impl Server {
    fn new(seed: u64) -> Self {
        let root = DeviceSecret::from_seed(Rng::derive(seed, 1).next_u64());
        let layers = Arc::new(network(seed));
        let mgr = Self::manager(seed, root, 0);
        Self {
            seed,
            root,
            layers,
            mgr,
            served: 0,
        }
    }

    fn manager(seed: u64, root: DeviceSecret, generation: u64) -> SessionManager {
        let mut mgr = SessionManager::new(
            root,
            Rng::derive(seed, generation.wrapping_add(0x2000_0000)).next_u64(),
            SHIFT,
            RecoveryPolicy::default(),
            8,
        );
        mgr.set_step_workers(host::nproc());
        mgr
    }

    /// One secure inference; returns the output (or why there is none)
    /// and the number of scheduler rounds it took. Each round is traced
    /// as one `layer` span: `step_round` plus the `harvest_terminal` that
    /// follows it, which is one daemon tick.
    fn infer(&mut self, x: &QTensor3, trace: &mut Trace) -> (Result<QTensor3, String>, usize) {
        if self.served > 0 && self.served.is_multiple_of(SESSIONS_PER_MANAGER) {
            self.mgr = Self::manager(self.seed, self.root, self.served / SESSIONS_PER_MANAGER);
        }
        let tenant = u32::try_from(self.served % SESSIONS_PER_MANAGER).unwrap_or(0);
        self.served += 1;
        let span = trace.begin("infer", None);
        self.mgr.admit(AdmitSpec {
            tenant,
            name: "infer-mid".into(),
            layers: Arc::clone(&self.layers),
            input: x.clone(),
            arrival_round: 1,
            injector: None,
            deadline_rounds: None,
            crash_cuts: Vec::new(),
            nonce_salt: 0,
            home_dir: None,
        });
        let mut rounds = 0usize;
        let outcome = loop {
            let r = trace.begin("layer", Some(span));
            let progressed = self.mgr.step_round();
            let harvested = self.mgr.harvest_terminal().pop();
            trace.end(r);
            rounds += 1;
            if let Some(o) = harvested {
                break Ok(o);
            }
            if !progressed || rounds > 4 * STACK.len() {
                break Err(format!("session not terminal after {rounds} rounds"));
            }
        };
        trace.end(span);
        let out = outcome.and_then(|o| match o.verdict {
            SessionVerdict::Completed(run) => Ok(run.output),
            SessionVerdict::Aborted(e) => Err(format!("aborted: {e}")),
            SessionVerdict::Quarantined(q) => Err(format!("quarantined: {}", q.cause)),
        });
        let out = match self.mgr.pad_collisions() {
            0 => out,
            n => Err(format!("{n} pad collisions")),
        };
        (out, rounds)
    }
}

/// The plain reference, one layer at a time: every layer's output and
/// the wall time of each layer.
fn plain_chain(layers: &[QConvLayer], x: &QTensor3) -> (Vec<QTensor3>, Vec<f64>) {
    let mut acts = Vec::with_capacity(layers.len());
    let mut ms = Vec::with_capacity(layers.len());
    let mut cur = x.clone();
    for i in 0..layers.len() {
        let t = Instant::now();
        cur = infer_plain(&layers[i..=i], &cur, SHIFT);
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        acts.push(cur.clone());
    }
    (acts, ms)
}

/// Records each layer's zero-or-saturated share of a plain chain;
/// returns an error if a layer has collapsed.
fn collapse(acts: &[QTensor3], shares: &mut [Vec<f64>]) -> Option<String> {
    let mut err = None;
    for (i, a) in acts.iter().enumerate() {
        let s = zero_or_sat_share(a);
        shares[i].push(s);
        if s >= COLLAPSE_SHARE && err.is_none() {
            err = Some(format!(
                "layer {i} activations collapsed: {:.0}% zero or saturated; refusing this seed",
                s * 100.0
            ));
        }
    }
    err
}

/// Checks one secure output against its plain chain; returns the error.
fn check(secure: Result<QTensor3, String>, acts: &[QTensor3]) -> Option<String> {
    match secure {
        Ok(out) if Some(&out) == acts.last() => None,
        Ok(_) => Some("secure output differs from infer_plain".into()),
        Err(e) => Some(e),
    }
}

/// Per-layer crypto and compute figures of the traced pass.
#[derive(Default)]
struct Micro {
    conv_s: f64,
    conv_macs: u64,
    seal_ms: Vec<Vec<f64>>,
    open_ms: Vec<Vec<f64>>,
    sealed_blocks: u64,
    seal_s: f64,
    opened_blocks: u64,
    open_s: f64,
    folds: u64,
    fold_s: f64,
}

impl Micro {
    /// Times `qconv2d_grouped` on each layer's real input, and
    /// `seal_blocks` / `open_blocks` / the MAC folds at each layer's tile
    /// size, checking that open inverts seal and the MACs verify.
    fn sample(
        &mut self,
        layers: &[QConvLayer],
        x: &QTensor3,
        acts: &[QTensor3],
        dp: &CryptoDatapath,
        rng: &mut Rng,
        version: u32,
    ) -> Option<String> {
        let shapes = input_shapes(layers, INPUT);
        self.seal_ms.resize(layers.len(), Vec::new());
        self.open_ms.resize(layers.len(), Vec::new());
        for (i, l) in layers.iter().enumerate() {
            let inp = if i == 0 { x } else { &acts[i - 1] };
            let t = Instant::now();
            let acc = qconv2d_grouped(inp, &l.weights, l.stride, &l.channel_groups);
            self.conv_s += t.elapsed().as_secs_f64();
            std::hint::black_box(&acc);
            self.conv_macs += macs(l, shapes[i]);

            let n = tile_blocks(l, shapes[i]) as usize;
            let coords: Vec<BlockCoords> = (0..n)
                .map(|b| BlockCoords {
                    fmap_id: i as u32,
                    layer_id: i as u32,
                    version,
                    block_index: b as u32,
                })
                .collect();
            let blocks: Vec<[u8; 64]> = (0..n)
                .map(|_| {
                    let mut b = [0u8; 64];
                    for chunk in b.chunks_mut(8) {
                        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
                    }
                    b
                })
                .collect();
            let t = Instant::now();
            let sealed = dp.seal_blocks(&coords, &blocks);
            let seal = t.elapsed().as_secs_f64();
            let cts: Vec<[u8; 64]> = sealed.iter().map(|(ct, _)| *ct).collect();
            let t = Instant::now();
            let opened = dp.open_blocks(&coords, &cts);
            let open = t.elapsed().as_secs_f64();
            self.seal_ms[i].push(seal * 1e3);
            self.open_ms[i].push(open * 1e3);
            self.seal_s += seal;
            self.open_s += open;
            self.sealed_blocks += n as u64;
            self.opened_blocks += n as u64;

            let t = Instant::now();
            let mut lv = EagerLayerVerifier::new();
            for (_, mac) in &sealed {
                lv.on_write(mac);
            }
            for (_, mac) in &opened {
                lv.on_first_read(mac);
            }
            let verified = lv.check().is_verified();
            self.fold_s += t.elapsed().as_secs_f64();
            self.folds += 2 * n as u64;
            let roundtrip = opened.iter().map(|(pt, _)| pt).eq(blocks.iter());
            if !roundtrip || !verified {
                return Some(format!(
                    "layer {i}: open(seal(x)) != x or MACs do not verify"
                ));
            }
        }
        None
    }
}

/// Runs the workload.
pub fn run(cfg: &Cfg) -> Result<Raw, String> {
    let mut raw = Raw::default();
    let mut off = Trace::new(Instant::now(), false);
    let mut shares = vec![Vec::new(); STACK.len()];
    let mut server = None;
    for k in 0..cfg.setups.max(1) {
        let t = Instant::now();
        let mut s = Server::new(cfg.seed);
        let x = input(cfg.seed, u64::MAX - k as u64);
        let (out, _) = s.infer(&x, &mut off);
        let (acts, _) = plain_chain(&s.layers, &x);
        raw.setup_s.push(t.elapsed().as_secs_f64());
        if let Some(e) = check(out, &acts).or_else(|| collapse(&acts, &mut shares)) {
            return Err(format!("warm-up inference: {e}"));
        }
        server = Some(s);
    }
    let mut server = server.ok_or("no set-up")?;
    let layers = Arc::clone(&server.layers);
    let n_layers = layers.len();
    let epoch = Instant::now();
    let mut trace = Trace::new(epoch, cfg.traced);
    let mut plain_total_ms = Vec::new();
    let mut plain_layer_ms = vec![Vec::new(); n_layers];
    let mut micro = Micro::default();
    let dp = CryptoDatapath::new(DeviceSecret::from_seed(cfg.seed ^ 0x5EA1), cfg.seed);
    let mut rng = Rng::derive(cfg.seed, 7);
    let mut round_counts = Vec::new();
    // Plain chains of the input pool, computed at each input's first use.
    let mut refs: Vec<Vec<QTensor3>> = Vec::new();
    let deadline = epoch + cfg.budget();
    let mut i = 0u64;
    // Serving clock: advances only while a secure inference runs.
    let mut clock = 0.0;
    while i == 0 || Instant::now() < deadline {
        let slot = (i % INPUT_POOL) as usize;
        let x = input(cfg.seed, slot as u64);
        raw.attempted += 1;
        let cpu0 = host::self_cpu();
        let t0 = Instant::now();
        let (out, rounds) = server.infer(&x, &mut trace);
        let wall = t0.elapsed().as_secs_f64();
        raw.cpu_s += (host::self_cpu() - cpu0).as_secs_f64();
        if slot == refs.len() {
            let (acts, layer_ms) = plain_chain(&layers, &x);
            plain_total_ms.push(layer_ms.iter().sum::<f64>());
            for (v, ms) in plain_layer_ms.iter_mut().zip(&layer_ms) {
                v.push(*ms);
            }
            if let Some(e) = collapse(&acts, &mut shares) {
                raw.errors.push(format!("input {slot}: {e}"));
            }
            refs.push(acts);
        }
        let acts = &refs[slot];
        round_counts.push(rounds);
        if let Some(e) = check(out, acts) {
            raw.failed += 1;
            raw.errors.push(format!("inference {i}: {e}"));
        } else {
            clock += wall;
            raw.samples.push((clock, wall * 1e3));
        }
        if cfg.traced {
            let version = u32::try_from(2 * i + 1).unwrap_or(u32::MAX);
            if let Some(e) = micro.sample(&layers, &x, acts, &dp, &mut rng, version) {
                raw.errors.push(e);
            }
        }
        i += 1;
    }
    raw.peak_rss_kb = host::status_kb("self", "VmHWM")?;
    raw.notes.push((
        "plain_ms_p50".into(),
        format!("{}", median(&plain_total_ms)),
    ));
    if cfg.traced {
        traced_metrics(
            &mut raw,
            &trace,
            &layers,
            &plain_layer_ms,
            &shares,
            &micro,
            &round_counts,
        );
    }
    Ok(raw)
}

#[allow(clippy::too_many_arguments)]
fn traced_metrics(
    raw: &mut Raw,
    trace: &Trace,
    layers: &[QConvLayer],
    plain_layer_ms: &[Vec<f64>],
    shares: &[Vec<f64>],
    micro: &Micro,
    round_counts: &[usize],
) {
    let n = layers.len();
    if round_counts.iter().any(|&r| r != n) {
        raw.errors.push(format!(
            "a lone session took {round_counts:?} rounds, expected one per layer ({n})"
        ));
        return;
    }
    // Round i of a lone session executes layer i (round 0 also promotes).
    let kids = trace.children_index();
    let mut secure_layer_ms = vec![Vec::new(); n];
    for (id, s) in trace.spans.iter().enumerate() {
        if s.name == "infer" {
            for (li, &c) in kids[id].iter().enumerate() {
                secure_layer_ms[li].push(trace.spans[c].dur_ns() as f64 / 1e6);
            }
        }
    }
    let rec = Reconciliation::of(trace, "infer");
    if !rec.holds(0.05) {
        raw.errors.push(format!(
            "infer-mid layer spans cover {:.1}% of inference wall time (need 95-105%)",
            rec.ratio() * 100.0
        ));
    }
    let shapes = input_shapes(layers, INPUT);
    let (mut secure_sum, mut plain_sum) = (0.0, 0.0);
    let mut crypto_ms = 0.0;
    for i in 0..n {
        let s = median(&secure_layer_ms[i]);
        let p = median(&plain_layer_ms[i]);
        secure_sum += s;
        plain_sum += p;
        // Each layer seals and opens its tile twice (partial + full).
        crypto_ms += 2.0 * (median(&micro.seal_ms[i]) + median(&micro.open_ms[i]));
        raw.layers.extend([
            metric(format!("layer.{i}.secure_ms"), s, "ms"),
            metric(format!("layer.{i}.plain_ms"), p, "ms"),
            metric(format!("layer.{i}.secure_over_plain"), s / p, "ratio"),
            metric(
                format!("layer.{i}.blocks"),
                tile_blocks(&layers[i], shapes[i]) as f64,
                "count",
            ),
            metric(
                format!("layer.{i}.zero_or_sat_share"),
                shares[i].iter().sum::<f64>() / shares[i].len().max(1) as f64,
                "ratio",
            ),
        ]);
    }
    raw.layers.extend([
        metric("model.secure_over_plain", secure_sum / plain_sum, "ratio"),
        metric("model.layer_span_share", rec.ratio(), "ratio"),
        metric(
            "compute.gmac_per_s",
            micro.conv_macs as f64 / micro.conv_s / 1e9,
            "GMAC/s",
        ),
        metric(
            "compute.macs_per_infer",
            macs_per_infer(layers) as f64,
            "count",
        ),
        metric(
            "secure_memory.seal_mblocks_per_s",
            micro.sealed_blocks as f64 / micro.seal_s / 1e6,
            "Mblocks/s",
        ),
        metric(
            "secure_memory.open_mblocks_per_s",
            micro.opened_blocks as f64 / micro.open_s / 1e6,
            "Mblocks/s",
        ),
        metric(
            "secure_memory.overhead_share",
            crypto_ms / (secure_sum - plain_sum),
            "ratio",
        ),
        metric(
            "mac_verify.fold_ns_per_block",
            micro.fold_s * 1e9 / micro.folds as f64,
            "ns",
        ),
    ]);
}
