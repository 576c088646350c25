//! The contopt benchmark: end-to-end and per-layer timings of the
//! simulator, the local sweep harness and the sweep service.
//!
//! ```text
//! perfbench --workload cells_serial|sweep_local|service_mixed
//!           --seed N --seconds S --trace 0|1 [--root DIR]
//! ```
//!
//! Run from the repository root (or pass `--root`): the benchmark reads
//! `scenarios/` and `goldens/` there and writes its result record and
//! spans under `.bench_out/`. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `perfbench/README.md` for what each metric means.

mod cells;
mod common;
mod host;
mod replay;
mod rng;
mod service;
mod stats;
mod sweep;
mod trace;

use common::Ctx;
use host::{Identity, Sampler};
use stats::{median, quantile, Dist};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 3] = ["cells_serial", "sweep_local", "service_mixed"];

/// End-to-end metrics, printed by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_mips", "MIPS"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`.
const PER_LAYER: [&str; 36] = [
    "emu.ns_per_inst",
    "emu.insts",
    "bpred.ns_per_branch",
    "bpred.branches",
    "bpred.mispredict_ratio",
    "mem.ns_per_access",
    "mem.accesses",
    "mem.l1d_miss_ratio",
    "core.ns_per_inst.baseline",
    "core.ns_per_inst.full",
    "core.early_exec_ratio",
    "core.mbc_hit_ratio",
    "pipeline.ns_per_cycle",
    "pipeline.ns_per_inst",
    "pipeline.self_ns_per_inst",
    "pipeline.sim_cycles",
    "sim.report_json_us",
    "sim.scenario_load_ms",
    "experiments.pool_busy_ratio",
    "experiments.tail_s",
    "experiments.check_ms",
    "workloads.suite_ms",
    "isa.verify_ms",
    "client.encode_us",
    "client.decode_us",
    "client.reply_bytes",
    "server.sweep_warm_us",
    "server.wire_share",
    "server.cache_hit_ratio",
    "server.simulated",
    "server.joined",
    "server.forwarded_ratio",
    "server.link_rtt_ms",
    "host.runq_wait_ms",
    "host.cpu_s",
    "trace.overhead_ratio",
];

/// Child processes that repeat the set-up alone, cold, for `setup_s`.
const SETUP_PROBES: usize = 15;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: PathBuf,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        root: PathBuf::from("."),
        setup_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            a.setup_probe = true;
            continue;
        }
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?,
            "--seconds" => {
                a.seconds = v.parse().map_err(|_| format!("bad --seconds {v}"))?;
            }
            "--trace" => a.trace = v == "1",
            "--root" => a.root = PathBuf::from(v),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload W --seed N --seconds S --trace 0|1 [--root DIR]"
            );
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        root: args.root.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        start,
    };
    if !ctx.path("scenarios/fig9.json").is_file() || !ctx.path("goldens/fig9").is_dir() {
        eprintln!(
            "perfbench: {} holds no scenarios/fig9.json and goldens/fig9; run from the repository root",
            ctx.root.display()
        );
        return ExitCode::from(2);
    }
    if args.setup_probe {
        match args.workload.as_str() {
            "cells_serial" => cells::setup_probe(),
            "sweep_local" => sweep::setup_probe(&ctx),
            _ => service::setup_probe(&ctx),
        }
        println!("{}", start.elapsed().as_secs_f64());
        return ExitCode::SUCCESS;
    }

    trace::set_enabled(args.trace);
    let sampler = Sampler::start(Duration::from_millis(if args.trace { 10 } else { 50 }));
    let identity = Identity::collect(&ctx.root);
    let load_start = host::loadavg();
    let wait_start = sampler.runq_wait_ms();
    let cpu_start = host::process_cpu_s();

    // Half the set-up probes run before the workload and half after, so
    // `setup_s` samples the host at both ends of the run. The workload's
    // own set-up is then timed from here.
    let mut setup = setup_probes(&args, SETUP_PROBES / 2);
    let ctx = Ctx {
        start: Instant::now(),
        ..ctx
    };
    let mut out = match args.workload.as_str() {
        "cells_serial" => cells::run(&ctx),
        "sweep_local" => sweep::run(&ctx, &sampler),
        _ => service::run(&ctx),
    };
    if args.trace {
        // Fill in the layers this workload does not exercise.
        if args.workload != "sweep_local" {
            sweep::smoke_probe(&ctx, &sampler, &mut out);
        }
        if args.workload != "service_mixed" {
            out = service::probe(&ctx, out);
        }
    }
    let peak_rss_mb = host::peak_rss_mb();
    let wait_ms = sampler.runq_wait_ms() - wait_start;
    let cpu_s = host::process_cpu_s() - cpu_start;
    out.layers.set("host.runq_wait_ms", wait_ms, "ms");
    out.layers.set("host.cpu_s", cpu_s, "s");
    let overhead = common::ratio(median(&out.traced_ms), median(&out.untraced_ms)) - 1.0;
    out.layers.set("trace.overhead_ratio", overhead, "ratio");

    setup.push(Some(out.setup_s));
    setup.extend(setup_probes(&args, SETUP_PROBES - SETUP_PROBES / 2));
    let setup: Vec<f64> = setup.into_iter().flatten().collect();
    if setup.len() < SETUP_PROBES + 1 {
        out.fail("a set-up probe failed".into());
    }
    let load_end = host::loadavg();
    let wait_end = sampler.runq_wait_ms();
    sampler.stop();

    let e2e = [
        median(&setup),
        peak_rss_mb,
        out.sim_mips,
        quantile(&out.op_ms, 0.5),
        quantile(&out.op_ms, 0.9),
        common::ratio(out.op_ms.len() as f64, out.loop_s),
    ];
    if out.op_ms.is_empty() {
        out.fail("no operation completed".into());
    }

    let mut text = String::new();
    let _ = writeln!(
        text,
        "perfbench {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let _ = writeln!(
        text,
        "identity: commit {} | {} | nproc {}",
        identity.commit, identity.rustc, identity.nproc
    );
    let _ = writeln!(
        text,
        "host at start: loadavg {load_start}, runq wait {wait_start:.3} ms; at end: loadavg {load_end}, runq wait {wait_end:.3} ms"
    );
    for n in &out.notes {
        let _ = writeln!(text, "  {n}");
    }
    let _ = writeln!(text, "  setup: {}", Dist::of(&setup).describe("s"));
    let _ = writeln!(
        text,
        "  operations: {}",
        Dist::of(&out.op_ms).describe("ms")
    );

    let mut metrics = Vec::new();
    if args.trace {
        let spans = trace::spans();
        let path = ctx.path(&format!(
            ".bench_out/spans-{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        match trace::write_jsonl(&path, &spans) {
            Ok(()) => {
                let _ = writeln!(
                    text,
                    "  {} spans written to {}",
                    spans.len(),
                    path.display()
                );
            }
            Err(e) => {
                let _ = writeln!(text, "  spans not written: {e}");
            }
        }
        let _ = writeln!(text, "  span totals (count, total ms, self ms):");
        for (name, (n, total, own)) in trace::self_times(&spans) {
            let _ = writeln!(
                text,
                "    {name:<22} {n:>7} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        let _ = writeln!(
            text,
            "  tracing overhead: operation p50 {:.4} ms traced (n={}) vs {:.4} ms untraced (n={}); \
             end-to-end values of this traced run: sim_mips {:.4}, op_ms_p50 {:.4}, op_ms_p90 {:.4}",
            median(&out.traced_ms),
            out.traced_ms.len(),
            median(&out.untraced_ms),
            out.untraced_ms.len(),
            e2e[2],
            e2e[3],
            e2e[4]
        );
        for name in PER_LAYER {
            let (v, unit) = match out.layers.0.get(name) {
                Some(&(v, unit)) if v.is_finite() => (v, unit),
                _ => {
                    out.fail(format!("layer metric {name} was not measured"));
                    (0.0, "none")
                }
            };
            metrics.push((name, v, unit));
        }
    } else {
        for ((name, unit), v) in END_TO_END.iter().zip(e2e) {
            if !v.is_finite() || v <= 0.0 {
                out.fail(format!("metric {name} was not measured"));
            }
            metrics.push((name, if v.is_finite() { v } else { 0.0 }, unit));
        }
    }
    let _ = writeln!(text, "  attempted {} failed {}", out.attempted, out.failed);
    for (name, v, unit) in &metrics {
        let _ = writeln!(text, "{name:<28} {v:>16.6} {unit}");
    }

    let metrics_json = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
        .collect::<Vec<_>>()
        .join(", ");
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics_json}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed
    );
    let record = ctx.path(&format!(
        ".bench_out/result-{}-seed{}-trace{}.txt",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let _ = std::fs::create_dir_all(ctx.path(".bench_out"))
        .and_then(|()| std::fs::write(&record, format!("{text}{result}\n")));
    print!("{text}");
    println!("{result}");
    ExitCode::SUCCESS
}

/// Repeats the workload's set-up in `n` fresh processes (a cold process
/// is what a user starts), returning each one's seconds to set up, or
/// `None` for a probe that failed.
fn setup_probes(args: &Args, n: usize) -> Vec<Option<f64>> {
    let exe = std::env::current_exe().ok();
    (0..n)
        .map(|_| {
            let o = Command::new(exe.as_ref()?)
                .args([
                    "--workload",
                    &args.workload,
                    "--seed",
                    &args.seed.to_string(),
                ])
                .arg("--root")
                .arg(&args.root)
                .arg("--setup-probe")
                .output()
                .ok()?;
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .last()
                .and_then(|l| l.trim().parse::<f64>().ok())
        })
        .collect()
}
