//! What every workload shares: the run context, the result record, the
//! timed set-up steps, and the sampled per-layer replay.

use crate::replay::{self, Replay};
use crate::trace;
use contopt_sim::isa::{analysis, Program};
use contopt_sim::workloads::{self, Workload};
use contopt_sim::{MachineConfig, Report, Scenario, SimSession};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The command line, plus when the process started.
pub struct Ctx {
    pub root: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub start: Instant,
}

impl Ctx {
    pub fn path(&self, rel: &str) -> PathBuf {
        self.root.join(rel)
    }

    /// Batches a run makes even past its deadline: one, or a traced and
    /// an untraced one when tracing, so the tracing overhead is measured.
    pub fn min_batches(&self) -> usize {
        if self.trace {
            2
        } else {
            1
        }
    }
}

/// Per-layer metrics by name: `(value, unit)`.
#[derive(Default)]
pub struct Layers(pub BTreeMap<&'static str, (f64, &'static str)>);

impl Layers {
    /// Records a metric. The first value recorded for a name wins: a
    /// workload's own measurements come before the probes that fill in
    /// the layers it does not exercise.
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.entry(name).or_insert((value, unit));
    }
}

/// `a / b`, or 0 when nothing was measured.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// One workload's run: operation counts, timing samples and notes.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Seconds from process start to the first timed operation.
    pub setup_s: f64,
    /// Simulated instructions per host second (see each workload).
    pub sim_mips: f64,
    /// Latency of every measured operation, in ms.
    pub op_ms: Vec<f64>,
    /// Wall time of the measured loop, in s.
    pub loop_s: f64,
    /// Operation latencies with tracing on, then off, in a traced run
    /// (they give the tracing overhead).
    pub traced_ms: Vec<f64>,
    pub untraced_ms: Vec<f64>,
    pub layers: Layers,
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts a failed operation and keeps the first few reasons.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= 10 {
            self.notes.push(format!("FAILED: {why}"));
        }
    }
}

/// The suite, assembled and statically verified: the set-up every
/// workload pays before its first simulation.
pub struct Prepared {
    pub suite: Vec<Workload>,
    pub suite_ms: f64,
    pub verify_ms: f64,
    pub verify_errors: Vec<String>,
}

pub fn prepare() -> Prepared {
    let t = Instant::now();
    let suite = {
        let _s = trace::span("workloads.suite");
        workloads::suite()
    };
    let suite_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let mut verify_errors = Vec::new();
    for w in &suite {
        let _s = trace::span("isa.verify");
        if analysis::verify(&w.program).has_errors() {
            verify_errors.push(format!("kernel {} fails static verification", w.name));
        }
    }
    let verify_ms = t.elapsed().as_secs_f64() * 1e3;
    Prepared {
        suite,
        suite_ms,
        verify_ms,
        verify_errors,
    }
}

impl Prepared {
    pub fn record(&self, out: &mut Outcome) {
        out.layers.set("workloads.suite_ms", self.suite_ms, "ms");
        out.layers.set("isa.verify_ms", self.verify_ms, "ms");
        for e in &self.verify_errors {
            out.fail(e.clone());
        }
        out.attempted += self.suite.len() as u64;
    }
}

/// Loads and validates a checked-in scenario file, timing it as the
/// `sim.scenario_load_ms` layer metric.
pub fn load_scenario(path: &Path, out: &mut Outcome) -> Option<(Scenario, f64)> {
    let t = Instant::now();
    let loaded = {
        let _s = trace::span("sim.scenario_load");
        Scenario::load(path).and_then(|sc| sc.validate().map(|()| sc))
    };
    let ms = t.elapsed().as_secs_f64() * 1e3;
    match loaded {
        Ok(sc) => Some((sc, ms)),
        Err(e) => {
            out.fail(format!("scenario {}: {e}", path.display()));
            None
        }
    }
}

/// A cell as the layer replays need it.
#[derive(Clone)]
pub struct CellSpec {
    pub machine: MachineConfig,
    pub program: Arc<Program>,
    pub insts: u64,
}

/// Runs each cell once through `SimSession::run` (the `pipeline` layer),
/// serializes its report (`sim`), and replays its stream layer by layer
/// (`emu`, `bpred`, `mem`, `core`), checking the replays against the
/// report. Fills every `emu.*`, `bpred.*`, `mem.*`, `core.*`,
/// `pipeline.*` and `sim.report_json_us` metric.
pub fn layer_sample(cells: &[CellSpec], out: &mut Outcome) {
    let mut run_ns = 0u64;
    let mut cycles = 0u64;
    let mut retired = 0u64;
    let mut json_us = Vec::new();
    let mut replays: Vec<Replay> = Vec::new();
    for c in cells {
        out.attempted += 1;
        let session = match SimSession::builder()
            .machine(c.machine)
            .program(Arc::clone(&c.program))
            .insts(c.insts)
            .build()
        {
            Ok(s) => s,
            Err(e) => {
                out.fail(format!("layer sample cell: {e}"));
                continue;
            }
        };
        let t = Instant::now();
        let report: Report = {
            let _s = trace::span("pipeline.run");
            session.run()
        };
        run_ns += t.elapsed().as_nanos() as u64;
        cycles += report.pipeline.cycles;
        retired += report.pipeline.retired;
        let t = Instant::now();
        {
            let _s = trace::span("sim.report_json");
            std::hint::black_box(report.canonical_json());
        }
        json_us.push(t.elapsed().as_secs_f64() * 1e6);
        let r = replay::replay(&c.machine, &c.program, c.insts, &report);
        for m in &r.mismatches {
            out.fail(m.clone());
        }
        replays.push(r);
    }

    let sum = |f: &dyn Fn(&Replay) -> u64| replays.iter().map(f).sum::<u64>() as f64;
    let insts = sum(&|r| r.insts);
    let l = &mut out.layers;
    l.set("emu.insts", insts, "count");
    l.set("emu.ns_per_inst", ratio(sum(&|r| r.emu_ns), insts), "ns");
    let branches = sum(&|r| r.branches);
    let predictions = sum(&|r| r.predictor.cond_predictions + r.predictor.indirect_predictions);
    let mispredictions =
        sum(&|r| r.predictor.cond_mispredictions + r.predictor.indirect_mispredictions);
    l.set("bpred.branches", branches, "count");
    l.set(
        "bpred.ns_per_branch",
        ratio(sum(&|r| r.bpred_ns), branches),
        "ns",
    );
    l.set(
        "bpred.mispredict_ratio",
        ratio(mispredictions, predictions),
        "ratio",
    );
    let accesses = sum(&|r| r.accesses);
    l.set("mem.accesses", accesses, "count");
    l.set(
        "mem.ns_per_access",
        ratio(sum(&|r| r.mem_ns), accesses),
        "ns",
    );
    l.set(
        "mem.l1d_miss_ratio",
        ratio(
            sum(&|r| r.memory.l1d.misses()),
            sum(&|r| r.memory.l1d.accesses),
        ),
        "ratio",
    );
    for (on, name) in [
        (false, "core.ns_per_inst.baseline"),
        (true, "core.ns_per_inst.full"),
    ] {
        let (ns, n) = replays
            .iter()
            .filter(|r| r.optimizer_on == on)
            .fold((0u64, 0u64), |(a, b), r| (a + r.core_ns, b + r.core_insts));
        l.set(name, ratio(ns as f64, n as f64), "ns");
    }
    let full: Vec<&Replay> = replays.iter().filter(|r| r.optimizer_on).collect();
    let fsum = |f: &dyn Fn(&Replay) -> u64| full.iter().map(|r| f(r)).sum::<u64>() as f64;
    l.set(
        "core.early_exec_ratio",
        ratio(fsum(&|r| r.early), fsum(&|r| r.core_insts)),
        "ratio",
    );
    l.set(
        "core.mbc_hit_ratio",
        ratio(fsum(&|r| r.mbc_hits), fsum(&|r| r.mbc_lookups)),
        "ratio",
    );
    let ns_per_inst = ratio(run_ns as f64, retired as f64);
    l.set(
        "pipeline.ns_per_cycle",
        ratio(run_ns as f64, cycles as f64),
        "ns",
    );
    l.set("pipeline.ns_per_inst", ns_per_inst, "ns");
    l.set(
        "pipeline.self_ns_per_inst",
        ns_per_inst - ratio(sum(&|r| r.layers_ns()), insts),
        "ns",
    );
    l.set("pipeline.sim_cycles", cycles as f64, "count");
    l.set("sim.report_json_us", crate::stats::median(&json_us), "us");
    out.notes.push(format!(
        "layer replays: {} cells, {} instructions; emu and bpred counts {} the cell reports; \
         the mem replay is approximate (program order, not execution order)",
        replays.len(),
        insts,
        if replays.iter().all(|r| r.mismatches.is_empty()) {
            "equal"
        } else {
            "DIFFER FROM"
        }
    ));
}
