//! `tcp`: the real `seculator daemon` over TCP, driven by two
//! closed-loop client threads (one tenant each) submitting seeded inputs
//! round-robin over the three daemon models and polling until terminal.
//! One client keeps its connection; the other reconnects and
//! re-authenticates every 8th request, as `seculator submit` does on
//! every one. The daemon keeps its journals in RAM; the traced pass adds
//! a fixed-count probe of a second daemon with an on-disk `--home`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use seculator_client::Client;
use seculator_compute::quant::QTensor3;
use seculator_core::{campaign_models, infer_plain, output_digest, CampaignModel};
use seculator_wire::{encode_frame, wire_identity, FrameDecoder, Message, RequestState, TcpWire};

use crate::stats::{median, Reconciliation, Sample, Trace};
use crate::{host, metric, Cfg, Raw, Rng};

/// Requests after which the daemon's `VmHWM` is read: `peak_rss_mb`
/// compares commits at equal work, because the daemon keeps every
/// result for its lifetime and so grows with every request served.
pub const RSS_CHECKPOINT: u64 = 5000;
/// Requests the durable probe serves, one at a time.
const DURABLE_REQUESTS: u64 = 100;
/// The reconnecting client opens a new connection every this many
/// requests.
const RECONNECT_EVERY: u64 = 8;
/// Hang guard on one request's polls.
const MAX_POLLS: u64 = 1 << 22;

/// A running daemon child; dropping it kills and reaps the process.
struct Daemon {
    child: Child,
    dir: PathBuf,
    addr: String,
    seed: u64,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = fs::remove_dir_all(&self.dir);
    }
}

impl Daemon {
    /// Starts a daemon; with `home`, its durable homes live under the
    /// scratch directory.
    fn spawn(cfg: &Cfg, seed: u64, tag: &str, home: bool) -> Result<Self, String> {
        let dir = cfg.work.join(format!("tcp-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let port_file = dir.join("port");
        let mut cmd = Command::new(&cfg.seculator);
        cmd.arg("daemon")
            .args(["--listen", "127.0.0.1:0", "--port-file"])
            .arg(&port_file)
            .args(["--seed", &seed.to_string()]);
        if home {
            cmd.arg("--home").arg(dir.join("home"));
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", cfg.seculator.display()))?;
        let mut d = Self {
            child,
            dir,
            addr: String::new(),
            seed,
        };
        let limit = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(a) = fs::read_to_string(&port_file) {
                if !a.is_empty() {
                    d.addr = a;
                    return Ok(d);
                }
            }
            if let Ok(Some(st)) = d.child.try_wait() {
                return Err(format!("daemon exited before listening: {st}"));
            }
            if Instant::now() > limit {
                return Err("daemon did not write its port file within 30 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn connect(&self, tenant: u32, nonce: u64) -> Result<Client<TcpWire>, String> {
        let wire = TcpWire::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        let mut c = Client::new(wire, tenant);
        let (root, _) = wire_identity(self.seed);
        c.authenticate(&root.derive_tenant(tenant), nonce)
            .map_err(|e| format!("authenticate tenant {tenant}: {e}"))?;
        Ok(c)
    }

    /// Graceful drain, then waits for the process to exit.
    fn shutdown(mut self, client: &mut Client<TcpWire>) -> Result<(), String> {
        client.drain().map_err(|e| format!("drain: {e}"))?;
        let limit = Instant::now() + Duration::from_secs(30);
        while Instant::now() < limit {
            match self.child.try_wait() {
                Ok(Some(st)) if st.success() => return Ok(()),
                Ok(Some(st)) => return Err(format!("daemon exited with {st}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(1)),
                Err(e) => return Err(format!("wait: {e}")),
            }
        }
        Err("daemon did not exit within 30 s of a drain".into())
    }
}

/// One request the clients sent: enough to recompute its reference.
struct Sent {
    model: usize,
    input: QTensor3,
    digest: u64,
}

/// What one client thread brings back.
struct ClientOut {
    client: Client<TcpWire>,
    samples: Vec<Sample>,
    sent: Vec<Sent>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    trace: Trace,
    polls: u64,
    wire_bytes: u64,
    codec_s: f64,
}

fn input_for(models: &[CampaignModel], seed: u64, tenant: u32, id: u64) -> (usize, QTensor3) {
    let m = (id as usize + tenant as usize) % models.len();
    let x = &models[m].input;
    let label = (u64::from(tenant) << 40) | id;
    (
        m,
        QTensor3::seeded(x.c, x.h, x.w, Rng::derive(seed, label).next_u64()),
    )
}

/// Frame bytes of one message, and the time to decode it back.
fn codec(msg: &Message) -> Result<(u64, f64), String> {
    let t = Instant::now();
    let frame = encode_frame(&msg.encode());
    let mut dec = FrameDecoder::new();
    dec.push(&frame);
    let payload = dec
        .next_frame()
        .map_err(|e| format!("codec: {e}"))?
        .ok_or("codec: incomplete frame")?;
    let back = Message::decode(&payload).map_err(|e| format!("codec: {e}"))?;
    let s = t.elapsed().as_secs_f64();
    if &back != msg {
        return Err("codec: message did not survive encode/decode".into());
    }
    Ok((frame.len() as u64, s))
}

struct Shared<'a> {
    cfg: &'a Cfg,
    daemon: &'a Daemon,
    models: &'a [CampaignModel],
    deadline: Instant,
    epoch: Instant,
    completed: AtomicU64,
    rss_at_checkpoint: Mutex<Option<f64>>,
}

/// One closed-loop client: submit, poll until terminal, repeat.
fn client_loop(
    sh: &Shared<'_>,
    mut client: Client<TcpWire>,
    reconnect: bool,
) -> Result<ClientOut, String> {
    let tenant = client.tenant();
    let mut trace = Trace::new(sh.epoch, sh.cfg.traced);
    let mut samples = Vec::new();
    let mut sent = Vec::new();
    let (mut attempted, mut failed, mut errors) = (0u64, 0u64, Vec::new());
    let (mut polls_total, mut wire_bytes, mut codec_s) = (0u64, 0u64, 0.0);
    let mut nonce = Rng::derive(sh.cfg.seed, 0x6000_0000 + u64::from(tenant));
    let mut id = 0u64;
    while Instant::now() < sh.deadline {
        id += 1;
        let (m, x) = input_for(sh.models, sh.cfg.seed, tenant, id);
        let name = sh.models[m].name;
        let mut msgs: Vec<Message> = Vec::new();
        attempted += 1;
        let t0 = Instant::now();
        let req = trace.begin("request", None);
        if reconnect && id.is_multiple_of(RECONNECT_EVERY) {
            let s = trace.begin("connect_auth", Some(req));
            // The old connection closes before the new one opens.
            drop(client);
            client = sh.daemon.connect(tenant, nonce.next_u64())?;
            trace.end(s);
            if sh.cfg.traced {
                msgs.extend([
                    Message::ClientHello {
                        tenant,
                        client_nonce: 0,
                    },
                    Message::ServerChallenge {
                        challenge: 0,
                        server_nonce: 0,
                    },
                    Message::AuthProof { tag: [0; 32] },
                    Message::AuthOk { tenant },
                ]);
            }
        }
        let s = trace.begin("submit", Some(req));
        let submitted = client.submit(id, name, x.clone());
        trace.end(s);
        let queued_round = match submitted {
            Ok(r) => r,
            Err(e) => {
                trace.end(req);
                failed += 1;
                errors.push(format!("tenant {tenant} request {id}: {e}"));
                continue;
            }
        };
        if sh.cfg.traced {
            msgs.push(Message::Submit {
                request_id: id,
                model: name.to_string(),
                input: x.clone(),
            });
            msgs.push(Message::SubmitAck {
                request_id: id,
                queued_round,
            });
        }
        let mut polls = 0u64;
        let result = loop {
            let s = trace.begin("poll", Some(req));
            let st = client.poll(id);
            trace.end(s);
            polls += 1;
            let st = match st {
                Ok(st) => st,
                Err(e) => break Err(format!("poll: {e}")),
            };
            if sh.cfg.traced {
                msgs.push(Message::Poll { request_id: id });
                msgs.push(Message::Status {
                    request_id: id,
                    state: st.clone(),
                });
            }
            match st {
                RequestState::Queued | RequestState::Running { .. } if polls < MAX_POLLS => {}
                RequestState::Completed { digest, .. } => break Ok(digest),
                other => break Err(format!("ended as {other:?}")),
            }
        };
        trace.end(req);
        let done = Instant::now();
        polls_total += polls;
        match result {
            Ok(digest) => {
                samples.push((
                    done.duration_since(sh.epoch).as_secs_f64(),
                    done.duration_since(t0).as_secs_f64() * 1e3,
                ));
                sent.push(Sent {
                    model: m,
                    input: x,
                    digest,
                });
                let n = sh.completed.fetch_add(1, Ordering::SeqCst) + 1;
                if n == RSS_CHECKPOINT {
                    let kb = host::status_kb(&sh.daemon.pid().to_string(), "VmHWM")?;
                    *sh.rss_at_checkpoint.lock().expect("rss lock poisoned") = Some(kb);
                }
            }
            Err(e) => {
                failed += 1;
                errors.push(format!("tenant {tenant} request {id}: {e}"));
            }
        }
        for msg in &msgs {
            let (bytes, s) = codec(msg)?;
            wire_bytes += bytes;
            codec_s += s;
        }
    }
    Ok(ClientOut {
        client,
        samples,
        sent,
        attempted,
        failed,
        errors,
        trace,
        polls: polls_total,
        wire_bytes,
        codec_s,
    })
}

/// Files and bytes under a directory tree.
fn walk(dir: &Path) -> Result<(u64, u64), String> {
    let mut files = 0;
    let mut bytes = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for e in fs::read_dir(&d).map_err(|e| format!("{}: {e}", d.display()))? {
            let e = e.map_err(|e| e.to_string())?;
            let meta = e.metadata().map_err(|e| e.to_string())?;
            if meta.is_dir() {
                stack.push(e.path());
            } else {
                files += 1;
                bytes += meta.len();
            }
        }
    }
    Ok((files, bytes))
}

/// A daemon with two authenticated clients and one warm-up request
/// served.
struct Ready {
    daemon: Daemon,
    clients: [Client<TcpWire>; 2],
}

fn set_up(cfg: &Cfg, models: &[CampaignModel], tag: &str, home: bool) -> Result<Ready, String> {
    let mut rng = Rng::derive(cfg.seed, 2);
    let daemon_seed = rng.next_u64();
    let tenant = u32::try_from(rng.next_u64() % 1000).unwrap_or(0);
    let daemon = Daemon::spawn(cfg, daemon_seed, tag, home)?;
    let mut a = daemon.connect(tenant, rng.next_u64())?;
    let b = daemon.connect(tenant + 1, rng.next_u64())?;
    let (m, x) = input_for(models, cfg.seed, tenant, 0);
    a.submit(0, models[m].name, x.clone())
        .map_err(|e| format!("warm-up submit: {e}"))?;
    match a.wait_terminal(0, MAX_POLLS) {
        Ok(RequestState::Completed { digest, .. }) if digest == reference(&models[m], &x) => {}
        other => return Err(format!("warm-up request: {other:?}")),
    }
    Ok(Ready {
        daemon,
        clients: [a, b],
    })
}

/// The digest a correct daemon returns for `x`.
fn reference(m: &CampaignModel, x: &QTensor3) -> u64 {
    output_digest(&infer_plain(&m.layers, x, m.session.shift))
}

/// The durable layer at a fixed request count: a daemon with an on-disk
/// `--home` serves [`DURABLE_REQUESTS`] requests one at a time. Exact
/// file and byte counts; times here depend on the disk under the
/// checkout, which is why no end-to-end metric is taken from this daemon.
fn durable_probe(cfg: &Cfg, models: &[CampaignModel], raw: &mut Raw) -> Result<(), String> {
    let Ready {
        daemon,
        mut clients,
    } = set_up(cfg, models, "durable", true)?;
    let pid = daemon.pid();
    let dcpu0 = host::proc_cpu(pid)?;
    let tenant = clients[0].tenant();
    let mut lat = Vec::new();
    for id in 1..=DURABLE_REQUESTS {
        let (m, x) = input_for(models, cfg.seed ^ 0xD0AB, tenant, id);
        raw.attempted += 1;
        let t = Instant::now();
        clients[0]
            .submit(id, models[m].name, x.clone())
            .map_err(|e| format!("durable probe submit: {e}"))?;
        let st = clients[0].wait_terminal(id, MAX_POLLS);
        lat.push(t.elapsed().as_secs_f64() * 1e3);
        match st {
            Ok(RequestState::Completed { digest, .. }) if digest == reference(&models[m], &x) => {}
            other => {
                raw.failed += 1;
                raw.errors
                    .push(format!("durable probe request {id}: {other:?}"));
            }
        }
    }
    let dcpu = (host::proc_cpu(pid)? - dcpu0).as_secs_f64();
    // +1 for the warm-up request, whose home is there too.
    let homes = (DURABLE_REQUESTS + 1) as f64;
    let (files, bytes) = walk(&daemon.dir.join("home"))?;
    daemon.shutdown(&mut clients[0])?;
    let n = DURABLE_REQUESTS as f64;
    raw.layers.extend([
        metric("durable.bytes_per_req", bytes as f64 / homes, "bytes"),
        metric("durable.files_per_req", files as f64 / homes, "count"),
        metric("durable.latency_ms_p50", median(&lat), "ms"),
        metric("durable.daemon_cpu_ms_per_req", dcpu * 1e3 / n, "ms"),
    ]);
    Ok(())
}

/// Runs the workload.
pub fn run(cfg: &Cfg) -> Result<Raw, String> {
    let models = campaign_models();
    let mut raw = Raw::default();
    let mut ready = None;
    for k in 0..cfg.setups.max(1) {
        if let Some(Ready {
            daemon,
            mut clients,
        }) = ready.take()
        {
            daemon.shutdown(&mut clients[0])?;
        }
        let t = Instant::now();
        ready = Some(set_up(cfg, &models, &k.to_string(), false)?);
        raw.setup_s.push(t.elapsed().as_secs_f64());
    }
    let Ready { daemon, clients } = ready.ok_or("no set-up")?;
    let pid = daemon.pid();
    let pid_s = pid.to_string();
    let cpu0 = host::self_cpu();
    let dcpu0 = host::proc_cpu(pid)?;
    let rss0 = host::status_kb(&pid_s, "VmRSS")?;
    let epoch = Instant::now();
    let sh = Shared {
        cfg,
        daemon: &daemon,
        models: &models,
        deadline: epoch + cfg.budget(),
        epoch,
        completed: AtomicU64::new(0),
        rss_at_checkpoint: Mutex::new(None),
    };
    let [a, b] = clients;
    let outs: Vec<Result<ClientOut, String>> = std::thread::scope(|s| {
        let ha = s.spawn(|| client_loop(&sh, a, false));
        let hb = s.spawn(|| client_loop(&sh, b, true));
        [ha, hb]
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let cpu = (host::self_cpu() - cpu0).as_secs_f64();
    let dcpu = (host::proc_cpu(pid)? - dcpu0).as_secs_f64();
    let rss1 = host::status_kb(&pid_s, "VmRSS")?;
    let hwm_end = host::status_kb(&pid_s, "VmHWM")?;
    let completed = sh.completed.load(Ordering::SeqCst);
    let rss_at_checkpoint = *sh.rss_at_checkpoint.lock().expect("rss lock poisoned");
    let mut outs: Vec<ClientOut> = outs.into_iter().collect::<Result<_, _>>()?;
    daemon.shutdown(&mut outs[0].client)?;
    raw.cpu_s = cpu + dcpu;
    raw.peak_rss_kb = match rss_at_checkpoint {
        Some(kb) => kb,
        None => {
            raw.notes.push((
                "peak_rss".into(),
                crate::json_str(&format!(
                    "checkpoint of {RSS_CHECKPOINT} requests not reached; VmHWM at end"
                )),
            ));
            hwm_end
        }
    };
    let mut trace = Trace::new(epoch, cfg.traced);
    let (mut polls, mut wire_bytes, mut codec_s) = (0u64, 0u64, 0.0);
    let mut sent = Vec::new();
    for mut o in outs {
        raw.samples.append(&mut o.samples);
        raw.attempted += o.attempted;
        raw.failed += o.failed;
        raw.errors.append(&mut o.errors);
        sent.append(&mut o.sent);
        trace.absorb(o.trace);
        polls += o.polls;
        wire_bytes += o.wire_bytes;
        codec_s += o.codec_s;
    }

    // Checked after the clock stops: every digest equals infer_plain's.
    for s in &sent {
        let m = &models[s.model];
        if reference(m, &s.input) != s.digest {
            raw.failed += 1;
            raw.errors
                .push(format!("{}: digest differs from infer_plain", m.name));
        }
    }
    raw.notes.push(("requests".into(), completed.to_string()));
    if cfg.traced {
        let n = completed.max(1) as f64;
        let rec = Reconciliation::of(&trace, "request");
        if !rec.holds(0.05) {
            raw.errors.push(format!(
                "tcp client spans cover {:.1}% of request latency (need 95-105%)",
                rec.ratio() * 100.0
            ));
        }
        raw.layers.extend([
            metric(
                "wire.connect_auth_ms_p50",
                median(&trace.durations_ms("connect_auth")),
                "ms",
            ),
            metric(
                "wire.submit_rtt_ms_p50",
                median(&trace.durations_ms("submit")),
                "ms",
            ),
            metric(
                "wire.poll_rtt_ms_p50",
                median(&trace.durations_ms("poll")),
                "ms",
            ),
            metric("wire.polls_per_req", polls as f64 / n, "count"),
            metric("wire.bytes_per_req", wire_bytes as f64 / n, "bytes"),
            metric("wire.codec_us_per_req", codec_s * 1e6 / n, "us"),
            metric("wire.span_share", rec.ratio(), "ratio"),
            metric("daemon.cpu_ms_per_req", dcpu * 1e3 / n, "ms"),
            metric("daemon.rss_kb_per_req", (rss1 - rss0) / n, "kB"),
        ]);
        durable_probe(cfg, &models, &mut raw)?;
    }
    Ok(raw)
}
