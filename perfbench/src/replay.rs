//! Per-layer replays of one cell's instruction stream, driven from
//! outside the timing model through each crate's public API:
//!
//! - `emu`: [`Emulator::step`] over the cell's whole stream;
//! - `bpred`: the predictor calls the fetch stage makes, in program
//!   order (fetch stalls on a mispredict, so fetch order is program
//!   order);
//! - `mem`: one I-fetch per instruction-line change and one data access
//!   per load and store, in program order — the pipeline issues loads
//!   out of order, so this replay is approximate;
//! - `core`: an in-order loop renaming at fetch width, then completing
//!   and releasing every result at once.
//!
//! The `emu` and `bpred` replays must reproduce the cell report's
//! retired count and predictor counters exactly.

use crate::trace;
use contopt_sim::bpred::{Predictor, PredictorStats};
use contopt_sim::emu::{DynInst, Emulator, Step};
use contopt_sim::isa::{ArchReg, Inst, Program, Reg, STACK_TOP};
use contopt_sim::mem::{HierarchyStats, MemHierarchy};
use contopt_sim::{MachineConfig, Optimizer, RenameReq, RenamedClass, Report};
use std::sync::Arc;
use std::time::Instant;

/// What the replays of one cell measured.
#[derive(Debug, Default, Clone)]
pub struct Replay {
    pub optimizer_on: bool,
    pub emu_ns: u64,
    pub insts: u64,
    pub bpred_ns: u64,
    pub branches: u64,
    pub predictor: PredictorStats,
    pub mem_ns: u64,
    pub accesses: u64,
    pub memory: HierarchyStats,
    pub core_ns: u64,
    pub early: u64,
    pub core_insts: u64,
    pub mbc_lookups: u64,
    pub mbc_hits: u64,
    /// Mismatches against the cell report (empty when the replay agrees).
    pub mismatches: Vec<String>,
}

impl Replay {
    /// Time the four replayed layers took, in ns.
    pub fn layers_ns(&self) -> u64 {
        self.emu_ns + self.bpred_ns + self.mem_ns + self.core_ns
    }
}

/// Replays `program` under `cfg` for up to `insts` instructions and
/// validates the counts against `report`, the same cell's pipeline run.
pub fn replay(cfg: &MachineConfig, program: &Arc<Program>, insts: u64, report: &Report) -> Replay {
    let _cell = trace::span("replay");
    let mut r = Replay {
        optimizer_on: cfg.optimizer.enabled,
        ..Replay::default()
    };

    let stream = {
        let _s = trace::span("emu.step");
        let t = Instant::now();
        let stream = emu_stream(program, insts, &mut r.mismatches);
        r.emu_ns = elapsed_ns(t);
        stream
    };
    r.insts = stream.len() as u64;
    if r.insts != report.pipeline.retired {
        r.mismatches.push(format!(
            "emu replay stepped {} instructions, the report retired {}",
            r.insts, report.pipeline.retired
        ));
    }

    let mispredicted = {
        let _s = trace::span("bpred.replay");
        let t = Instant::now();
        let mut p = Predictor::new(cfg.predictor);
        let mut calls = 0;
        let m: Vec<bool> = stream
            .iter()
            .map(|d| predict(&mut p, d, &mut calls))
            .collect();
        r.bpred_ns = elapsed_ns(t);
        r.branches = calls;
        r.predictor = p.stats();
        m
    };
    if r.predictor != report.predictor {
        r.mismatches.push(format!(
            "bpred replay counted {:?}, the report {:?}",
            r.predictor, report.predictor
        ));
    }

    {
        let _s = trace::span("mem.replay");
        let t = Instant::now();
        let mut h = MemHierarchy::new(cfg.hierarchy);
        let line_bytes = cfg.hierarchy.l1i.line_bytes;
        let mut line = u64::MAX;
        let mut n = 0;
        for d in &stream {
            if d.pc / line_bytes != line {
                line = d.pc / line_bytes;
                h.inst_fetch(d.pc);
                n += 1;
            }
            if let Some(addr) = d.eff_addr.filter(|_| d.inst.is_mem()) {
                h.data_access(addr, d.inst.is_store());
                n += 1;
            }
        }
        r.mem_ns = elapsed_ns(t);
        r.accesses = n;
        r.memory = h.stats();
    }

    {
        let _s = trace::span("core.rename");
        let t = Instant::now();
        let mut opt = Optimizer::new(cfg.optimizer, cfg.preg_count, |a: ArchReg| {
            if a == ArchReg::from(Reg::SP) {
                STACK_TOP
            } else {
                0
            }
        });
        drive_core(&mut opt, &stream, &mispredicted, cfg.fetch_width);
        r.core_ns = elapsed_ns(t);
        let s = opt.stats();
        r.core_insts = s.insts;
        r.early = s.executed_early;
        let m = opt.mbc_stats();
        r.mbc_lookups = m.lookups;
        r.mbc_hits = m.hits;
    }
    r
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// The committed stream as the pipeline pulls it: up to `insts`
/// instructions, ending early at `halt`.
fn emu_stream(program: &Arc<Program>, insts: u64, errors: &mut Vec<String>) -> Vec<DynInst> {
    let mut emu = Emulator::new(Arc::clone(program));
    let mut out = Vec::with_capacity(insts.min(1 << 20) as usize);
    while (out.len() as u64) < insts {
        match emu.step() {
            Ok(Step::Inst(d)) => {
                let halt = matches!(d.inst, Inst::Halt);
                out.push(d);
                if halt {
                    break;
                }
            }
            Ok(Step::Halted) => break,
            Err(e) => {
                errors.push(format!("emu replay failed: {e}"));
                break;
            }
        }
    }
    out
}

/// The fetch stage's predictor traffic for one instruction; returns
/// whether the front end mispredicted it.
fn predict(p: &mut Predictor, d: &DynInst, calls: &mut u64) -> bool {
    match d.inst {
        Inst::Br { target, .. } => {
            *calls += 1;
            !p.update_cond(d.pc, d.taken, target)
        }
        Inst::Bsr { .. } => {
            *calls += 1;
            p.push_return(d.pc.wrapping_add(4));
            false
        }
        Inst::Jmp { rd, ra } => {
            *calls += 1;
            if rd.is_zero() && ra == Reg::RA {
                !p.predict_return(d.next_pc)
            } else {
                !p.update_indirect(d.pc, d.next_pc)
            }
        }
        _ => false,
    }
}

/// Renames the stream in bundles of `width`, one bundle per cycle, and
/// completes every renamed result in the same cycle (no timing model).
fn drive_core(opt: &mut Optimizer, stream: &[DynInst], mispredicted: &[bool], width: usize) {
    let mut reqs: Vec<RenameReq> = Vec::with_capacity(width);
    let mut out = Vec::with_capacity(width);
    let mut pos = 0;
    let mut cycle = 0u64;
    while pos < stream.len() {
        reqs.clear();
        let end = (pos + width).min(stream.len());
        reqs.extend((pos..end).map(|i| RenameReq {
            d: stream[i],
            mispredicted: mispredicted[i],
        }));
        out.clear();
        opt.rename_bundle_into(cycle, &reqs, &mut out);
        if out.is_empty() {
            break; // no free physical register: cannot happen when every result completes at once
        }
        for (ren, req) in out.iter().zip(&reqs) {
            if ren.class != RenamedClass::Done {
                for &p in &ren.srcs {
                    opt.release(p);
                }
            }
            if let (Some(dst), true) = (ren.dst, ren.dst_new) {
                if let Some(v) = ren.early_value.or(req.d.result) {
                    opt.complete(dst, v, cycle);
                }
                opt.release(dst);
            }
        }
        pos += out.len();
        cycle += 1;
    }
}
