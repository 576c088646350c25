//! `cells_serial`: one thread calls `SimSession::run` back to back on
//! every kernel of the suite under the paper's baseline and full-pass
//! machines. No pool, wire or cache: host time goes to the simulator's
//! own layers.

use crate::common::{layer_sample, prepare, CellSpec, Ctx, Outcome};
use crate::rng::Rng;
use crate::trace;
use contopt_sim::workloads::Workload;
use contopt_sim::{MachineConfig, SimSession};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Instruction budget per cell.
const INSTS: u64 = 150_000;

struct Cell {
    label: &'static str,
    workload: Workload,
    session: SimSession,
}

/// Every kernel (the three Table 1 suites and the text-authored
/// kernels) under both machines. The seed draws the order of each pass;
/// drawing a subset of kernels instead moved the run's MIPS by a fifth
/// from one seed to the next, which would hide a regression.
fn cells(suite: &[Workload], out: &mut Outcome) -> Vec<Cell> {
    let mut cells = Vec::new();
    for w in suite {
        for (label, machine) in [
            ("baseline", MachineConfig::default_paper()),
            ("full", MachineConfig::default_with_optimizer()),
        ] {
            match SimSession::builder()
                .machine(machine)
                .program(Arc::clone(&w.program))
                .insts(INSTS)
                .build()
            {
                Ok(session) => cells.push(Cell {
                    label,
                    workload: w.clone(),
                    session,
                }),
                Err(e) => out.fail(format!("{label}/{}: {e}", w.name)),
            }
        }
    }
    cells
}

/// The set-up alone, as the `--setup-probe` child measures it.
pub fn setup_probe() {
    let mut out = Outcome::default();
    let p = prepare();
    std::hint::black_box(cells(&p.suite, &mut out));
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = Rng::new(ctx.seed);
    let p = prepare();
    p.record(&mut out);
    let cells = cells(&p.suite, &mut out);
    out.setup_s = ctx.start.elapsed().as_secs_f64();

    // The first run of each cell is its reference: every later run must
    // reproduce its canonical report byte for byte.
    let mut first: Vec<Option<String>> = vec![None; cells.len()];
    let mut order: Vec<usize> = (0..cells.len()).collect();
    let (mut insts, mut secs) = (0u64, 0f64);
    let deadline = Duration::from_secs_f64(ctx.seconds);
    let t_loop = Instant::now();
    let mut pass = 0usize;
    while t_loop.elapsed() < deadline || pass < ctx.min_batches() {
        // A traced run alternates traced and untraced passes, so the
        // same run also measures what tracing costs.
        let traced = ctx.trace && pass % 2 == 0;
        trace::set_enabled(traced);
        rng.shuffle(&mut order);
        for &i in &order {
            let cell = &cells[i];
            out.attempted += 1;
            let t = Instant::now();
            let report = catch_unwind(AssertUnwindSafe(|| {
                let _s = trace::span("pipeline.run");
                cell.session.run()
            }));
            let dt = t.elapsed().as_secs_f64();
            let Ok(report) = report else {
                out.fail(format!("{}/{} panicked", cell.label, cell.workload.name));
                continue;
            };
            let json = report.canonical_json();
            match &first[i] {
                None => first[i] = Some(json),
                Some(j) if *j == json => {}
                Some(_) => {
                    out.fail(format!(
                        "{}/{}: report differs from the cell's first run",
                        cell.label, cell.workload.name
                    ));
                    continue;
                }
            }
            insts += report.pipeline.retired;
            secs += dt;
            out.op_ms.push(dt * 1e3);
            if ctx.trace {
                if traced {
                    out.traced_ms.push(dt * 1e3);
                } else {
                    out.untraced_ms.push(dt * 1e3);
                }
            }
        }
        pass += 1;
    }
    out.loop_s = t_loop.elapsed().as_secs_f64();
    out.sim_mips = insts as f64 / secs.max(1e-9) / 1e6;
    trace::set_enabled(ctx.trace);
    out.notes.push(format!(
        "{} cells (every kernel, baseline and full, {INSTS} instructions), {pass} passes",
        cells.len()
    ));

    if ctx.trace {
        let specs: Vec<CellSpec> = cells
            .iter()
            .map(|c| CellSpec {
                machine: *c.session.config(),
                program: Arc::clone(&c.workload.program),
                insts: c.session.insts(),
            })
            .collect();
        layer_sample(&specs, &mut out);
    }
    out
}
