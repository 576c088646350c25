//! `sweep_local`: the checked-in `scenarios/fig9.json` sweep through
//! `scenario_plan` + `Lab::execute` on two workers, in a seed-drawn cell
//! order, with every report golden-checked by `check_cell` — the
//! command researchers run.

use crate::common::{layer_sample, load_scenario, prepare, CellSpec, Ctx, Outcome};
use crate::host::{self, Sampler};
use crate::rng::Rng;
use crate::stats::median;
use crate::trace;
use contopt_experiments::{check_cell, scenario_plan, Lab, Plan, TolerancePolicy};
use contopt_sim::workloads::Workload;
use contopt_sim::{MachineConfig, Scenario};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker threads, as `contopt-experiments --jobs 2`.
pub const JOBS: usize = 2;

/// Cells of the sweep replayed layer by layer in a traced run.
const REPLAYED_CELLS: usize = 3;

/// A loaded scenario, lowered to its plan.
pub struct Sweep {
    scenario: Scenario,
    plan: Plan,
    /// `(label, machine, workload)` in declaration order.
    cells: Vec<(String, MachineConfig, Workload)>,
    goldens: PathBuf,
}

pub fn load(ctx: &Ctx, name: &str, out: &mut Outcome) -> Option<Sweep> {
    let (scenario, load_ms) = load_scenario(&ctx.path(&format!("scenarios/{name}.json")), out)?;
    out.layers.set("sim.scenario_load_ms", load_ms, "ms");
    let plan = match scenario_plan(&scenario) {
        Ok(p) => p,
        Err(e) => {
            out.fail(format!("scenario {name}: {e}"));
            return None;
        }
    };
    let mut cells = Vec::new();
    for cfg in &scenario.configs {
        match scenario.workloads_for(cfg) {
            Ok(ws) => cells.extend(ws.into_iter().map(|w| (cfg.label.clone(), cfg.machine, w))),
            Err(e) => out.fail(format!("scenario {name}: {e}")),
        }
    }
    Some(Sweep {
        scenario,
        plan,
        cells,
        goldens: ctx.path("goldens"),
    })
}

/// One sweep's timings.
pub struct SweepTimes {
    /// `Lab::execute` plus the golden check.
    pub total_s: f64,
    pub execute_s: f64,
    pub retired: u64,
    pub check_ms: Vec<f64>,
    /// Process CPU seconds consumed during `Lab::execute`.
    pub execute_cpu_s: f64,
    /// Time from the first worker going idle to the end of the execute.
    pub tail_s: f64,
}

impl Sweep {
    /// The plan's cells in a seed-drawn order.
    fn shuffled_plan(&self, rng: &mut Rng) -> Plan {
        let mut cells = self.plan.fingerprints();
        rng.shuffle(&mut cells);
        let mut plan = Plan::new();
        for (cfg, name) in cells {
            if let Some((_, _, w)) = self.cells.iter().find(|(_, _, w)| w.name == name) {
                plan.cell(cfg, w);
            }
        }
        plan
    }

    /// Executes the whole scenario on a cold lab and golden-checks every
    /// cell. Failed cells are counted in `out`.
    pub fn run_once(
        &self,
        rng: &mut Rng,
        sampler: &Sampler,
        out: &mut Outcome,
    ) -> Option<SweepTimes> {
        let plan = self.shuffled_plan(rng);
        let mut lab = Lab::new(self.scenario.insts);
        let cpu0 = host::process_cpu_s();
        let t0 = Instant::now();
        let executed = catch_unwind(AssertUnwindSafe(|| {
            let _s = trace::span("experiments.execute");
            lab.execute(&plan, JOBS);
        }));
        let execute_s = t0.elapsed().as_secs_f64();
        let t_exec_end = Instant::now();
        let execute_cpu_s = host::process_cpu_s() - cpu0;
        if executed.is_err() {
            out.attempted += self.cells.len() as u64;
            out.fail(format!("{}: a sweep worker panicked", self.scenario.name));
            return None;
        }
        let mut retired = 0;
        let mut check_ms = Vec::with_capacity(self.cells.len());
        let policy = TolerancePolicy::exact();
        for (label, machine, w) in &self.cells {
            out.attempted += 1;
            let t = Instant::now();
            let _s = trace::span("experiments.check");
            let Some(report) = lab.cached(machine, w.name) else {
                out.fail(format!("{label}/{}: no report", w.name));
                continue;
            };
            retired += report.pipeline.retired;
            let json = report.canonical_json();
            match check_cell(
                &self.goldens,
                &self.scenario.name,
                label,
                w.name,
                &json,
                &policy,
            ) {
                Ok(None) => {}
                Ok(Some(drift)) => out.fail(drift.to_string()),
                Err(e) => out.fail(format!("{label}/{}: {e}", w.name)),
            }
            check_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        // The workers are the threads born during the execute; the first
        // one to exit marks the start of the tail.
        let tail_s = sampler
            .threads_born_after(t0)
            .into_iter()
            .filter(|&t| t <= t_exec_end)
            .min()
            .map_or(0.0, |first_idle| {
                t_exec_end
                    .saturating_duration_since(first_idle)
                    .as_secs_f64()
            });
        Some(SweepTimes {
            total_s: t0.elapsed().as_secs_f64(),
            execute_s,
            retired,
            check_ms,
            execute_cpu_s,
            tail_s,
        })
    }

    /// Records the `experiments.*` layer metrics of a set of sweeps.
    pub fn record_layers(times: &[SweepTimes], out: &mut Outcome) {
        let busy: Vec<f64> = times
            .iter()
            .map(|t| t.execute_cpu_s / (JOBS as f64 * t.execute_s))
            .collect();
        let checks: Vec<f64> = times.iter().flat_map(|t| t.check_ms.clone()).collect();
        let tails: Vec<f64> = times.iter().map(|t| t.tail_s).collect();
        out.layers
            .set("experiments.pool_busy_ratio", median(&busy), "ratio");
        out.layers.set("experiments.tail_s", median(&tails), "s");
        out.layers
            .set("experiments.check_ms", median(&checks), "ms");
    }
}

/// The set-up alone, as the `--setup-probe` child measures it.
pub fn setup_probe(ctx: &Ctx) {
    let mut out = Outcome::default();
    prepare();
    std::hint::black_box(load(ctx, "fig9", &mut out));
}

pub fn run(ctx: &Ctx, sampler: &Sampler) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = Rng::new(ctx.seed);
    let p = prepare();
    p.record(&mut out);
    let Some(sweep) = load(ctx, "fig9", &mut out) else {
        return out;
    };
    out.setup_s = ctx.start.elapsed().as_secs_f64();

    let deadline = Duration::from_secs_f64(ctx.seconds);
    let t_loop = Instant::now();
    let mut times = Vec::new();
    let mut n = 0usize;
    // A sweep starts only if it should end no later than half a sweep
    // past the deadline, so runs stay close to `--seconds` long.
    let mut last = Duration::ZERO;
    while t_loop.elapsed() + last / 2 < deadline || n < ctx.min_batches() {
        let traced = ctx.trace && n % 2 == 0;
        trace::set_enabled(traced);
        n += 1;
        let Some(t) = sweep.run_once(&mut rng, sampler, &mut out) else {
            continue;
        };
        last = Duration::from_secs_f64(t.total_s);
        out.op_ms.push(t.total_s * 1e3);
        if ctx.trace {
            if traced {
                out.traced_ms.push(t.total_s * 1e3);
            } else {
                out.untraced_ms.push(t.total_s * 1e3);
            }
        }
        times.push(t);
    }
    out.loop_s = t_loop.elapsed().as_secs_f64();
    let retired: u64 = times.iter().map(|t| t.retired).sum();
    let execute_s: f64 = times.iter().map(|t| t.execute_s).sum();
    out.sim_mips = retired as f64 / execute_s.max(1e-9) / 1e6;
    trace::set_enabled(ctx.trace);
    out.notes.push(format!(
        "{} cells per sweep, {} sweeps on {JOBS} workers; execute median {:.4} s",
        sweep.cells.len(),
        times.len(),
        median(&times.iter().map(|t| t.execute_s).collect::<Vec<_>>())
    ));

    if ctx.trace {
        Sweep::record_layers(&times, &mut out);
        let specs: Vec<CellSpec> = rng
            .sample(&sweep.cells, REPLAYED_CELLS)
            .into_iter()
            .map(|(_, machine, w)| CellSpec {
                machine,
                program: Arc::clone(&w.program),
                insts: sweep.scenario.insts,
            })
            .collect();
        layer_sample(&specs, &mut out);
    }
    out
}

/// The `experiments.*` layer metrics for a workload that does not sweep:
/// one sweep of the small `smoke` scenario, golden-checked.
pub fn smoke_probe(ctx: &Ctx, sampler: &Sampler, out: &mut Outcome) {
    let Some(sweep) = load(ctx, "smoke", out) else {
        return;
    };
    let mut rng = Rng::new(ctx.seed);
    if let Some(t) = sweep.run_once(&mut rng, sampler, out) {
        Sweep::record_layers(&[t], out);
    }
}
