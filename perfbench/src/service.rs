//! `service_mixed`: two closed-loop clients send `submit_plan` requests
//! to an in-process frontier `Server` federated with one in-process
//! downstream, one worker each. Most requests resubmit an earlier plan
//! (warm: cache reads, wire and framing); every [`COLD_PERIOD`] each
//! client sends one with new short-budget cells instead (cold: cache
//! writes, placement, forwarding and simulation), and some of those
//! overlap the other client's in-flight plan.

use crate::common::{layer_sample, load_scenario, prepare, ratio, CellSpec, Ctx, Outcome};
use crate::rng::Rng;
use crate::stats::{median, Dist};
use crate::trace;
use contopt_client::protocol::{
    read_frame, write_frame, CellReply, Message, PlanCell, SweepStatus,
};
use contopt_client::Client;
use contopt_server::federation::FederationConfig;
use contopt_server::{Server, ServerConfig, ServerHandle, SweepCell};
use contopt_sim::workloads::Workload;
use contopt_sim::{machine_to_json, MachineConfig, SimSession};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How often each client sends a cold request. A clock, not a request
/// count, sets the pace, so the run's cold cells (the cache's working set
/// and the local re-simulation the check pays) do not grow or shrink with
/// host speed.
const COLD_PERIOD: Duration = Duration::from_millis(500);

/// Cold-cell instruction budgets: short, so a cold simulation holds a
/// core for a few milliseconds and only a few percent of warm requests
/// queue behind one.
const BUDGETS: [u64; 5] = [4_000, 5_000, 6_000, 7_000, 8_000];

/// Result-cache capacity of both servers: far above a run's working set,
/// so eviction never happens and is not measured.
const CACHE_CAPACITY: usize = 16_384;

/// Requests whose frames are kept for the `client.*` codec timings.
const CAPTURED: usize = 64;

/// A plan as submitted: one budget, cells indexed into the config pool.
#[derive(Clone)]
struct PlanReq {
    insts: u64,
    /// `(config index, workload)`.
    cells: Vec<(usize, &'static str)>,
}

/// Sums the per-request `SweepStatus` counters the layer metrics use.
fn accumulate(acc: &mut SweepStatus, s: &SweepStatus) {
    acc.unique += s.unique;
    acc.simulated += s.simulated;
    acc.cache_hits += s.cache_hits;
    acc.joined += s.joined;
    acc.forwarded += s.forwarded;
}

/// What the clients observed, shared between them so that its memory
/// grows by one number per warm request.
#[derive(Default)]
struct Log {
    /// Warm request latencies, in ms.
    warm_ms: Vec<f64>,
    /// Cold plans with their latencies, in ms.
    cold: Vec<(PlanReq, f64)>,
    /// Latencies of traced and of untraced requests (traced runs only).
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    totals: SweepStatus,
}

/// The running topology: a frontier forwarding to one downstream.
pub struct Topology {
    frontier: ServerHandle,
    downstream: ServerHandle,
}

impl Topology {
    fn spawn(out: &mut Outcome) -> Option<Topology> {
        let config = |downstreams: Vec<String>| ServerConfig {
            jobs: 1,
            cache_capacity: CACHE_CAPACITY,
            federation: FederationConfig {
                downstreams,
                ..FederationConfig::default()
            },
            ..ServerConfig::default()
        };
        let spawn = |cfg| Server::bind("127.0.0.1:0", cfg).and_then(Server::spawn);
        let downstream = match spawn(config(Vec::new())) {
            Ok(h) => h,
            Err(e) => {
                out.fail(format!("downstream server: {e}"));
                return None;
            }
        };
        let frontier = match spawn(config(vec![downstream.addr().to_string()])) {
            Ok(h) => h,
            Err(e) => {
                out.fail(format!("frontier server: {e}"));
                return None;
            }
        };
        if !frontier
            .engine()
            .probe_downstreams()
            .iter()
            .all(|d| d.healthy)
        {
            out.fail("downstream probe: link unhealthy".into());
        }
        Some(Topology {
            frontier,
            downstream,
        })
    }

    fn shutdown(self) {
        self.frontier.shutdown();
        self.downstream.shutdown();
    }
}

/// Every distinct machine configuration the checked-in scenarios use.
fn config_pool(ctx: &Ctx, out: &mut Outcome) -> Vec<MachineConfig> {
    let mut files: Vec<_> = std::fs::read_dir(ctx.path("scenarios"))
        .map(|d| {
            d.flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    let mut seen = BTreeSet::new();
    let mut pool = Vec::new();
    let mut load_ms = Vec::new();
    for f in files {
        let Some((sc, ms)) = load_scenario(&f, out) else {
            continue;
        };
        load_ms.push(ms);
        for c in sc.configs {
            if seen.insert(machine_to_json(&c.machine).to_string()) {
                pool.push(c.machine);
            }
        }
    }
    out.layers
        .set("sim.scenario_load_ms", median(&load_ms), "ms");
    if pool.is_empty() {
        out.fail("no machine configurations in scenarios/".into());
    }
    pool
}

/// Everything the clients share.
struct Shared {
    addr: String,
    pool: Vec<MachineConfig>,
    kernels: Vec<&'static str>,
    /// Cells issued cold so far, `(config, workload, insts)`.
    issued: Mutex<HashSet<(usize, &'static str, u64)>>,
    /// Plans that have completed, for warm resubmission.
    done: Mutex<Vec<PlanReq>>,
    /// Each client's cold plan while it is in flight, for overlapping
    /// requests.
    in_flight: Mutex<[Option<PlanReq>; 2]>,
    /// The first report bytes seen per cell; every later reply must match.
    reports: Mutex<HashMap<(usize, &'static str, u64), String>>,
    /// Frames of the first few requests, for the codec timings.
    captured: Mutex<Vec<Vec<Message>>>,
    log: Mutex<Log>,
    trace: bool,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Shared {
    fn cold_plan(&self, me: usize, rng: &mut Rng) -> PlanReq {
        // Half the cold requests made while the other client has a cold
        // plan in flight overlap it: same budget, one of its cells.
        let overlap = if rng.below(2) == 0 {
            lock(&self.in_flight)[1 - me].clone()
        } else {
            None
        };
        let insts = overlap
            .as_ref()
            .map_or(BUDGETS[rng.below(BUDGETS.len())], |p| p.insts);
        let mut cells = Vec::new();
        if let Some(p) = &overlap {
            cells.push(p.cells[rng.below(p.cells.len())]);
        }
        let fresh = 1 + rng.below(2);
        let mut issued = lock(&self.issued);
        while cells.len() < fresh + usize::from(overlap.is_some()) {
            let cell = (
                rng.below(self.pool.len()),
                self.kernels[rng.below(self.kernels.len())],
            );
            if issued.insert((cell.0, cell.1, insts)) {
                cells.push(cell);
            }
        }
        drop(issued);
        let plan = PlanReq { insts, cells };
        lock(&self.in_flight)[me] = Some(plan.clone());
        plan
    }

    fn plan_cells(&self, plan: &PlanReq) -> Vec<PlanCell> {
        plan.cells
            .iter()
            .map(|&(c, w)| PlanCell {
                label: format!("c{c}"),
                machine: self.pool[c],
                workload: w.to_string(),
            })
            .collect()
    }

    fn submit(&self, plan: &PlanReq) -> Result<(SweepStatus, Vec<CellReply>), String> {
        let client = Client::new(self.addr.clone());
        let mut sweep = client
            .submit_plan(plan.insts, self.plan_cells(plan), None)
            .map_err(|e| format!("submit: {e}"))?;
        let replies = sweep.fetch_reports().map_err(|e| format!("fetch: {e}"))?;
        Ok((sweep.status(), replies))
    }

    /// Keeps the frames of one exchange, for the codec timings.
    fn capture(&self, plan: &PlanReq, status: SweepStatus, replies: &[CellReply]) {
        let mut frames = vec![
            Message::SubmitPlan {
                jobs: None,
                insts: plan.insts,
                cells: self.plan_cells(plan),
                programs: Vec::new(),
            },
            Message::SweepStatus(status),
        ];
        frames.extend(replies.iter().map(|r| match r {
            CellReply::Report(c) => Message::CellResult(c.clone()),
            CellReply::Failed(e) => Message::CellError(e.clone()),
        }));
        let mut captured = lock(&self.captured);
        if captured.len() < CAPTURED {
            captured.push(frames);
        }
    }

    /// Checks each reply against the first bytes seen for its cell.
    fn check(&self, plan: &PlanReq, replies: &[CellReply]) -> Result<(), String> {
        if replies.len() != plan.cells.len() {
            return Err(format!(
                "{} replies for {} cells",
                replies.len(),
                plan.cells.len()
            ));
        }
        let mut reports = lock(&self.reports);
        for (&(c, w), reply) in plan.cells.iter().zip(replies) {
            match reply {
                CellReply::Report(r) => {
                    let known = reports
                        .entry((c, w, plan.insts))
                        .or_insert_with(|| r.report.clone());
                    if *known != r.report {
                        return Err(format!(
                            "c{c}/{w}@{}: reply differs from an earlier one",
                            plan.insts
                        ));
                    }
                }
                CellReply::Failed(e) => return Err(format!("cell_error: {e}")),
            }
        }
        Ok(())
    }
}

/// One client's closed loop until `deadline`.
fn client_loop(sh: &Shared, me: usize, mut rng: Rng, deadline: Instant, out: &Mutex<Outcome>) {
    let mut next_cold = Instant::now();
    let mut i = 0usize;
    while Instant::now() < deadline {
        let now = Instant::now();
        let warm = if now >= next_cold {
            None
        } else {
            let done = lock(&sh.done);
            (!done.is_empty()).then(|| done[rng.below(done.len())].clone())
        };
        let cold = warm.is_none();
        if cold {
            next_cold = now + COLD_PERIOD;
        }
        let plan = warm.unwrap_or_else(|| sh.cold_plan(me, &mut rng));
        let traced = sh.trace && i % 2 == 0;
        i += 1;
        let t = Instant::now();
        let result = {
            let _s = trace::span_if(traced, "client.request");
            sh.submit(&plan)
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let checked = result.and_then(|(status, replies)| {
            let _s = trace::span_if(traced, "client.check");
            if i <= CAPTURED {
                sh.capture(&plan, status, &replies);
            }
            sh.check(&plan, &replies).map(|()| status)
        });
        if cold {
            lock(&sh.in_flight)[me] = None;
        }
        let mut o = lock(out);
        o.attempted += 1;
        let status = match checked {
            Ok(status) => status,
            Err(e) => {
                o.fail(e);
                continue;
            }
        };
        drop(o);
        let mut log = lock(&sh.log);
        accumulate(&mut log.totals, &status);
        if sh.trace {
            if traced {
                log.traced_ms.push(ms);
            } else {
                log.untraced_ms.push(ms);
            }
        }
        if cold {
            lock(&sh.done).push(plan.clone());
            log.cold.push((plan, ms));
        } else {
            log.warm_ms.push(ms);
        }
    }
}

/// A drive of the topology by two clients, plus the check of every
/// reported cell against a local `SimSession::run`.
struct Drive {
    log: Log,
    loop_s: f64,
    /// Retired instructions per cell, from the local reference runs.
    retired: HashMap<(usize, &'static str, u64), u64>,
    done: Vec<PlanReq>,
    captured: Vec<Vec<Message>>,
    pool: Vec<MachineConfig>,
}

fn drive(
    ctx: &Ctx,
    topo: &Topology,
    pool: Vec<MachineConfig>,
    kernels: Vec<&'static str>,
    seconds: f64,
    out: Outcome,
) -> (Drive, Outcome) {
    let sh = Shared {
        addr: topo.frontier.addr().to_string(),
        pool,
        kernels,
        issued: Mutex::default(),
        done: Mutex::default(),
        in_flight: Mutex::default(),
        reports: Mutex::default(),
        captured: Mutex::default(),
        log: Mutex::default(),
        trace: ctx.trace,
    };
    let out = Mutex::new(out);
    let mut rng = Rng::new(ctx.seed);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        for me in 0..2 {
            let r = rng.fork(me as u64);
            let (sh, out) = (&sh, &out);
            s.spawn(move || client_loop(sh, me, r, deadline, out));
        }
    });
    let loop_s = t0.elapsed().as_secs_f64();
    let mut out = out
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);

    // Outside the timed region: every distinct cell must byte-match a
    // local simulation of the same cell.
    let reports: Vec<_> = sh
        .reports
        .into_inner()
        .unwrap_or_default()
        .into_iter()
        .collect();
    let pool = sh.pool;
    let checked: Vec<(usize, Result<u64, String>)> = std::thread::scope(|s| {
        let chunks: Vec<_> = (0..2)
            .map(|k| {
                let (reports, pool) = (&reports, &pool);
                s.spawn(move || {
                    reports
                        .iter()
                        .enumerate()
                        .skip(k)
                        .step_by(2)
                        .map(|(i, ((c, w, insts), remote))| {
                            (i, reference(&pool[*c], w, *insts, remote))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        chunks
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let mut retired = HashMap::new();
    for (i, r) in checked {
        let (key, _) = &reports[i];
        out.attempted += 1;
        match r {
            Ok(n) => {
                retired.insert(*key, n);
            }
            Err(e) => out.fail(e),
        }
    }
    let d = Drive {
        log: sh.log.into_inner().unwrap_or_default(),
        loop_s,
        retired,
        done: sh.done.into_inner().unwrap_or_default(),
        captured: sh.captured.into_inner().unwrap_or_default(),
        pool,
    };
    (d, out)
}

/// Simulates one cell locally; its canonical report must equal the
/// bytes the service returned. Returns the cell's retired count.
fn reference(
    machine: &MachineConfig,
    workload: &str,
    insts: u64,
    remote: &str,
) -> Result<u64, String> {
    let session = SimSession::builder()
        .machine(*machine)
        .workload(workload)
        .insts(insts)
        .build()
        .map_err(|e| format!("reference {workload}: {e}"))?;
    let report = session.run();
    if report.canonical_json() != remote {
        return Err(format!(
            "{workload}@{insts}: service reply differs from a local run"
        ));
    }
    Ok(report.pipeline.retired)
}

impl Drive {
    fn cold_ms(&self) -> Vec<f64> {
        self.log.cold.iter().map(|(_, ms)| *ms).collect()
    }

    /// Simulated instructions per second of wall time, one sample per
    /// cold request.
    fn cold_mips(&self) -> Vec<f64> {
        self.log
            .cold
            .iter()
            .map(|(plan, ms)| {
                let insts: u64 = plan
                    .cells
                    .iter()
                    .filter_map(|&(c, w)| self.retired.get(&(c, w, plan.insts)))
                    .sum();
                insts as f64 / ms / 1e3
            })
            .collect()
    }

    fn notes(&self, out: &mut Outcome) {
        out.notes.push(format!(
            "{} requests in {:.3} s: warm {}; cold {}; {} distinct cells checked against local runs",
            self.log.warm_ms.len() + self.log.cold.len(),
            self.loop_s,
            Dist::of(&self.log.warm_ms).describe("ms"),
            Dist::of(&self.cold_ms()).describe("ms"),
            self.retired.len()
        ));
    }

    /// The `client.*` and `server.*` layer metrics.
    fn record_layers(&self, topo: &Topology, out: &mut Outcome) {
        let t = self.log.totals;
        let l = &mut out.layers;
        l.set(
            "server.cache_hit_ratio",
            ratio(t.cache_hits as f64, t.unique as f64),
            "ratio",
        );
        l.set("server.simulated", t.simulated as f64, "count");
        l.set("server.joined", t.joined as f64, "count");
        l.set(
            "server.forwarded_ratio",
            ratio(t.forwarded as f64, t.simulated as f64),
            "ratio",
        );

        // Codec cost of whole exchanges, on the captured frames.
        let (mut enc, mut dec, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
        for frames in &self.captured {
            let mut buf = Vec::new();
            let t = Instant::now();
            let encoded = {
                let _s = trace::span("client.encode");
                frames.iter().all(|m| write_frame(&mut buf, m).is_ok())
            };
            enc.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let mut cursor = buf.as_slice();
            let decoded = {
                let _s = trace::span("client.decode");
                (0..frames.len())
                    .map(|_| read_frame(&mut cursor))
                    .collect::<Result<Vec<_>, _>>()
            };
            dec.push(t.elapsed().as_secs_f64() * 1e6);
            if !encoded || decoded.as_ref().map_or(true, |d| d != frames) {
                out.fail("captured frames do not round-trip".into());
            }
            let request_len = frames
                .first()
                .map_or(0, |m| m.to_json().to_string().len() + 4);
            bytes.push((buf.len() - request_len) as f64);
        }
        out.layers.set("client.encode_us", median(&enc), "us");
        out.layers.set("client.decode_us", median(&dec), "us");
        out.layers
            .set("client.reply_bytes", median(&bytes), "bytes");

        // The engine alone on warm plans, against warm request latency.
        let engine = topo.frontier.engine();
        let mut direct = Vec::new();
        for plan in self.done.iter().take(200) {
            let cells: Vec<SweepCell> = plan
                .cells
                .iter()
                .map(|&(c, w)| SweepCell {
                    label: format!("c{c}"),
                    machine: self.pool[c],
                    workload: w.to_string(),
                    program: None,
                })
                .collect();
            let t = Instant::now();
            let r = {
                let _s = trace::span("server.sweep");
                engine.sweep(plan.insts, &cells, None)
            };
            direct.push(t.elapsed().as_secs_f64() * 1e6);
            if !r.is_ok_and(|r| r.status.simulated == 0) {
                out.fail("direct warm sweep did not come from the cache".into());
            }
        }
        let warm_us = median(&self.log.warm_ms) * 1e3;
        out.layers
            .set("server.sweep_warm_us", median(&direct), "us");
        out.layers.set(
            "server.wire_share",
            1.0 - ratio(median(&direct), warm_us),
            "ratio",
        );

        let link = Client::new(topo.downstream.addr().to_string());
        let mut rtt = Vec::new();
        for _ in 0..20 {
            let t = Instant::now();
            match link.ping() {
                Ok(_) => rtt.push(t.elapsed().as_secs_f64() * 1e3),
                Err(e) => out.fail(format!("downstream ping: {e}")),
            }
        }
        out.layers.set("server.link_rtt_ms", median(&rtt), "ms");
    }

    /// A sample of the cold cells, for the layer replays.
    fn sample_cells(&self, rng: &mut Rng, n: usize) -> Vec<CellSpec> {
        let mut keys: Vec<_> = self.retired.keys().copied().collect();
        keys.sort_unstable();
        rng.sample(&keys, n)
            .into_iter()
            .filter_map(|(c, w, insts)| {
                contopt_sim::workloads::build(w).map(|wl: Workload| CellSpec {
                    machine: self.pool[c],
                    program: wl.program,
                    insts,
                })
            })
            .collect()
    }
}

/// The set-up: suite, scenario configs, and the running topology.
fn setup(
    ctx: &Ctx,
    out: &mut Outcome,
) -> Option<(Topology, Vec<MachineConfig>, Vec<&'static str>)> {
    let p = prepare();
    p.record(out);
    let pool = config_pool(ctx, out);
    let kernels = p.suite.iter().map(|w| w.name).collect();
    let topo = Topology::spawn(out)?;
    Some((topo, pool, kernels))
}

/// The set-up alone, as the `--setup-probe` child measures it.
pub fn setup_probe(ctx: &Ctx) {
    let mut out = Outcome::default();
    if let Some((topo, ..)) = setup(ctx, &mut out) {
        topo.shutdown();
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let Some((topo, pool, kernels)) = setup(ctx, &mut out) else {
        return out;
    };
    out.setup_s = ctx.start.elapsed().as_secs_f64();
    let (mut d, mut out) = drive(ctx, &topo, pool, kernels, ctx.seconds, out);

    out.loop_s = d.loop_s;
    out.sim_mips = median(&d.cold_mips());
    d.notes(&mut out);
    if ctx.trace {
        d.record_layers(&topo, &mut out);
        let mut rng = Rng::new(ctx.seed);
        layer_sample(&d.sample_cells(&mut rng, 8), &mut out);
    }
    topo.shutdown();
    out.op_ms = std::mem::take(&mut d.log.warm_ms);
    out.op_ms.extend(d.cold_ms());
    out.traced_ms = std::mem::take(&mut d.log.traced_ms);
    out.untraced_ms = std::mem::take(&mut d.log.untraced_ms);
    out
}

/// The `client.*` and `server.*` layer metrics for a workload that does
/// not use the service: a short drive of the same topology.
pub fn probe(ctx: &Ctx, mut out: Outcome) -> Outcome {
    let pool = config_pool(ctx, &mut out);
    let kernels = contopt_sim::workloads::names();
    let Some(topo) = Topology::spawn(&mut out) else {
        return out;
    };
    let (d, mut out) = drive(ctx, &topo, pool, kernels, 2.0, out);
    d.record_layers(&topo, &mut out);
    topo.shutdown();
    out
}
