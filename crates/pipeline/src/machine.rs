//! The cycle-level out-of-order machine.
//!
//! The timing model follows the classic oracle-functional / separate-timing
//! structure of academic simulators (the paper builds on SimpleScalar 3.0
//! the same way, §4.2): the functional emulator produces the committed
//! dynamic instruction stream; this module replays it through a
//! Pentium-4-like deep pipeline — fetch (I-cache + gshare/BTB/RAS), a
//! calibrated front-end delay, rename + continuous optimization, dispatch
//! into four small schedulers, dataflow-driven issue with functional-unit
//! and cache-port contention, and in-order retirement.
//!
//! Branch handling uses the stall-on-mispredict model: when fetch sees a
//! branch the predictor gets wrong, fetch stops until the branch resolves
//! (in the execution core, or — with continuous optimization — possibly at
//! the rename stage), then pays the redirect latency. The resulting minimum
//! penalty matches Table 2's 20 cycles on the baseline and 22 with the
//! optimizer's two extra stages.
//!
//! Every in-flight instruction lives in one window ring, indexed by its
//! sequence number masked to the ring size. Its oracle record is written
//! once, when the emulator produces it, and read in place by fetch,
//! rename, issue, completion and retirement. Because the pipeline never
//! squashes (fetch stalls on a mispredict instead), the window is one
//! contiguous sequence range, split into three consecutive parts: the
//! reorder buffer (oldest), the fetch queue, and the lookahead of at most
//! one instruction pulled from the emulator but not yet fetched.
//!
//! The retired-stream digest that differential tests compare is folded
//! only when [`Machine::run_with_state`] asks for it; [`Machine::run`]
//! skips it.

use crate::config::MachineConfig;
use crate::stats::{PipelineStats, RunReport};
use contopt::{Optimizer, Renamed, RenamedClass, SrcList};
use contopt_bpred::Predictor;
use contopt_emu::{ArchSnapshot, DynInst, Emulator, Step};
use contopt_isa::{ArchReg, ExecClass, Inst, Program, Reg, STACK_TOP};
use contopt_mem::MemHierarchy;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// The front end's view of one in-flight instruction.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    d: DynInst,
    mispredicted: bool,
    rename_ready: u64,
}

/// Reorder-buffer state of a renamed instruction; its oracle record stays
/// in the [`InFlight`] slot with the same index.
#[derive(Debug, Clone)]
struct RobEntry {
    ren: Renamed,
    completed: bool,
    complete_at: u64,
}

impl InFlight {
    /// A placeholder for ring slots that hold no instruction yet.
    const EMPTY: InFlight = InFlight {
        d: DynInst {
            seq: 0,
            pc: 0,
            inst: Inst::Nop,
            result: None,
            eff_addr: None,
            store_value: None,
            taken: false,
            next_pc: 0,
        },
        mispredicted: false,
        rename_ready: 0,
    };
}

impl RobEntry {
    /// A placeholder for ring slots that hold no renamed instruction yet.
    const EMPTY: RobEntry = RobEntry {
        ren: Renamed {
            seq: 0,
            class: RenamedClass::Done,
            srcs: SrcList::new(),
            dst: None,
            dst_new: false,
            early_value: None,
            resolved_early: false,
            load_removed: false,
            addr_known: false,
        },
        completed: false,
        complete_at: 0,
    };
}

#[derive(Debug, Clone, Copy)]
struct SchedEntry {
    seq: u64,
    earliest: u64,
}

const INT_SCHED: usize = 0;
const CPLX_SCHED: usize = 1;
const FP_SCHED: usize = 2;
const MEM_SCHED: usize = 3;

/// The simulated machine: functional emulator + timing state.
///
/// # Examples
///
/// ```
/// use contopt_isa::{Asm, r};
/// use contopt_pipeline::{Machine, MachineConfig};
///
/// let mut a = Asm::new();
/// a.li(r(1), 10);
/// a.label("loop");
/// a.subq(r(1), 1, r(1));
/// a.bne(r(1), "loop");
/// a.halt();
/// let report = Machine::new(MachineConfig::default_with_optimizer(), a.finish()?)
///     .run(100_000);
/// assert_eq!(report.pipeline.retired, 22);
/// assert!(report.ipc() > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    emu: Emulator,
    opt: Optimizer,
    hier: MemHierarchy,
    pred: Predictor,

    cycle: u64,
    stream_done: bool,

    // The in-flight window: two parallel rings indexed by `seq & mask`,
    // sized at construction to hold the largest possible window. Sequence
    // numbers split it into consecutive ranges:
    //   rob_head..fq_head   reorder buffer (renamed, not yet retired)
    //   fq_head..la_head    fetch queue (fetched, not yet renamed)
    //   la_head..pulled     lookahead (from the emulator, not yet fetched)
    insts: Vec<InFlight>,
    rob: Vec<RobEntry>,
    mask: u64,
    rob_head: u64,
    fq_head: u64,
    la_head: u64,
    pulled: u64,
    /// Fetch-queue capacity: the front end's depth in fetch blocks.
    fq_capacity: u64,
    /// log2 of the I-cache line size, so fetch finds a PC's line
    /// without dividing.
    i_line_shift: u32,

    fetch_resume_at: u64,
    mispredict_outstanding: bool,

    scheds: [Vec<SchedEntry>; 4],
    completions: BinaryHeap<Reverse<(u64, u64)>>,
    ready_at: Vec<u64>,

    // Scratch buffer reused every cycle so the steady-state rename path
    // performs no heap allocation.
    renamed_buf: Vec<Renamed>,

    // FNV chain over the retired stream for differential comparison,
    // folded at retire time only when `run_with_state` asks for it.
    fold_stream: bool,
    stream_digest: u64,

    stats: PipelineStats,
}

impl Machine {
    /// Builds a machine around a program with cold caches and predictors.
    ///
    /// Accepts either an owned [`Program`] or a shared `Arc<Program>`; the
    /// latter lets many machines (e.g. a parallel experiment sweep) share
    /// one program image without deep-cloning it per run.
    pub fn new(cfg: MachineConfig, program: impl Into<Arc<Program>>) -> Machine {
        let emu = Emulator::new(program);
        let opt = Optimizer::new(cfg.optimizer, cfg.preg_count, |a: ArchReg| {
            if a == ArchReg::from(Reg::SP) {
                STACK_TOP
            } else {
                0
            }
        });
        let ready_at = vec![0u64; cfg.preg_count];
        let front_total = cfg.front_depth + cfg.optimizer_extra_stages();
        let fq_capacity = (front_total + 8) * cfg.fetch_width as u64;
        // The reorder buffer plus a full fetch queue. The lookahead record
        // fits in the fetch queue's share: fetch pulls it only while the
        // queue has room, so the two together never exceed `fq_capacity`.
        let window = (cfg.rob_entries as u64 + fq_capacity).next_power_of_two();
        // `MemHierarchy::new` has asserted that the line size is a power
        // of two.
        let hier = MemHierarchy::new(cfg.hierarchy);
        Machine {
            hier,
            i_line_shift: cfg.hierarchy.l1i.line_bytes.trailing_zeros(),
            pred: Predictor::new(cfg.predictor),
            cfg,
            emu,
            opt,
            cycle: 0,
            stream_done: false,
            insts: vec![InFlight::EMPTY; window as usize],
            rob: vec![RobEntry::EMPTY; window as usize],
            mask: window - 1,
            rob_head: 0,
            fq_head: 0,
            la_head: 0,
            pulled: 0,
            fq_capacity,
            scheds: Default::default(),
            completions: BinaryHeap::new(),
            ready_at,
            renamed_buf: Vec::new(),
            fold_stream: false,
            stream_digest: contopt_emu::STREAM_DIGEST_INIT,
            fetch_resume_at: 0,
            mispredict_outstanding: false,
            stats: PipelineStats::default(),
        }
    }

    /// Runs the machine until the program halts or `max_insts` dynamic
    /// instructions have retired, then drains the pipeline.
    ///
    /// # Panics
    ///
    /// Panics on a strict-value-check failure, on exceeding
    /// [`MachineConfig::max_cycles`], or if the pipeline deadlocks (both
    /// indicate simulator bugs).
    pub fn run(mut self, max_insts: u64) -> RunReport {
        self.run_loop(max_insts);
        self.report()
    }

    /// Like [`run`](Self::run), but also returns the end-of-run
    /// architectural state ([`ArchSnapshot`]): register files, memory
    /// content digest, and the retired-stream digest. Differential tests
    /// use this to prove the optimized pipeline changes timing, never
    /// semantics.
    ///
    /// This is the only path that folds the retired-stream digest
    /// ([`DynInst::fold_digest`], at retire time); it yields the same
    /// report as [`run`](Self::run).
    pub fn run_with_state(mut self, max_insts: u64) -> (RunReport, ArchSnapshot) {
        self.fold_stream = true;
        self.run_loop(max_insts);
        let snap = ArchSnapshot::capture(&self.emu, self.stats.retired, self.stream_digest);
        (self.report(), snap)
    }

    fn run_loop(&mut self, max_insts: u64) {
        let mut last_progress = (0u64, 0u64); // (cycle, retired)
        loop {
            self.process_completions();
            self.retire();
            if self.finished() {
                break;
            }
            self.issue();
            self.rename_and_dispatch();
            self.fetch(max_insts);
            self.cycle += 1;

            if self.cfg.max_cycles > 0 && self.cycle > self.cfg.max_cycles {
                panic!("exceeded configured max_cycles {}", self.cfg.max_cycles);
            }
            if self.stats.retired > last_progress.1 {
                last_progress = (self.cycle, self.stats.retired);
            } else if self.cycle - last_progress.0 > 1_000_000 {
                panic!(
                    "pipeline deadlock at cycle {} (retired {}, rob {}, fq {})",
                    self.cycle,
                    self.stats.retired,
                    self.fq_head - self.rob_head,
                    self.la_head - self.fq_head
                );
            }
        }
        self.stats.cycles = self.cycle.max(1);
    }

    fn report(self) -> RunReport {
        RunReport {
            pipeline: self.stats,
            optimizer: self.opt.stats(),
            passes: self.opt.pass_stats(),
            mbc: self.opt.mbc_stats(),
            predictor: self.pred.stats(),
            memory: self.hier.stats(),
        }
    }

    fn finished(&self) -> bool {
        // Nothing left to pull, and everything pulled has retired.
        self.stream_done && self.rob_head == self.pulled
    }

    /// The window slot of sequence number `seq`.
    #[inline]
    fn slot(&self, seq: u64) -> usize {
        (seq & self.mask) as usize
    }

    // ---- stream --------------------------------------------------------

    /// Pulls the next record from the emulator into the window when the
    /// lookahead is empty; returns whether an unfetched record is ready.
    #[expect(
        clippy::expect_used,
        reason = "suite programs execute cleanly under the reference emulator"
    )]
    fn pull_stream(&mut self, max_insts: u64) -> bool {
        if self.la_head == self.pulled && !self.stream_done {
            if self.pulled >= max_insts {
                self.stream_done = true;
            } else {
                match self.emu.step().expect("workload executes cleanly") {
                    Step::Inst(d) => {
                        debug_assert_eq!(d.seq, self.pulled, "the stream is contiguous");
                        // The slot about to be written must not hold an
                        // unretired instruction.
                        assert!(self.pulled - self.rob_head <= self.mask, "window overflow");
                        if matches!(d.inst, Inst::Halt) {
                            self.stream_done = true;
                        }
                        let slot = self.slot(self.pulled);
                        self.insts[slot] = InFlight {
                            d,
                            mispredicted: false,
                            rename_ready: 0,
                        };
                        self.pulled += 1;
                    }
                    Step::Halted => self.stream_done = true,
                }
            }
        }
        self.la_head < self.pulled
    }

    // ---- fetch -----------------------------------------------------------

    fn fetch(&mut self, max_insts: u64) {
        if self.mispredict_outstanding {
            self.stats.mispredict_stall_cycles += 1;
            return;
        }
        if self.cycle < self.fetch_resume_at {
            return;
        }
        let rename_ready = self.cycle + self.cfg.front_depth + self.cfg.optimizer_extra_stages();
        let mut fetched = 0;
        let mut line: Option<u64> = None;
        while fetched < self.cfg.fetch_width && self.la_head - self.fq_head < self.fq_capacity {
            if !self.pull_stream(max_insts) {
                break;
            }
            let slot = self.slot(self.la_head);
            let f = &mut self.insts[slot];
            // Instruction cache: one access per line per fetch cycle.
            let line_addr = f.d.pc >> self.i_line_shift;
            if line != Some(line_addr) {
                let lat = self.hier.inst_fetch(f.d.pc);
                line = Some(line_addr);
                if lat > self.cfg.hierarchy.l1i_latency {
                    // Miss: the line fills; fetch resumes once it arrives.
                    self.fetch_resume_at = self.cycle + lat - self.cfg.hierarchy.l1i_latency;
                    break;
                }
            }
            f.mispredicted = predict(&mut self.pred, &f.d);
            f.rename_ready = rename_ready;
            self.la_head += 1;
            fetched += 1;
            if f.mispredicted {
                self.mispredict_outstanding = true;
                break;
            }
            if f.d.redirects() {
                break; // taken control flow ends the fetch block
            }
        }
    }

    // ---- rename / dispatch ----------------------------------------------

    fn sched_for(class: ExecClass) -> Option<usize> {
        match class {
            ExecClass::SimpleInt => Some(INT_SCHED),
            ExecClass::ComplexInt => Some(CPLX_SCHED),
            ExecClass::Fp => Some(FP_SCHED),
            ExecClass::Mem => Some(MEM_SCHED),
            ExecClass::None => None,
        }
    }

    fn sched_for_renamed(class: RenamedClass) -> Option<usize> {
        match class {
            RenamedClass::Done => None,
            RenamedClass::SimpleInt => Some(INT_SCHED),
            RenamedClass::ComplexInt => Some(CPLX_SCHED),
            RenamedClass::Fp => Some(FP_SCHED),
            RenamedClass::Load | RenamedClass::Store => Some(MEM_SCHED),
        }
    }

    fn rename_and_dispatch(&mut self) {
        let mut rob_free = self.cfg.rob_entries - (self.fq_head - self.rob_head) as usize;
        // Scheduler slots are reserved against the *unoptimized* class; the
        // optimizer occasionally moves an instruction to the int scheduler
        // (strength-reduced multiplies, expression-forwarded loads), so the
        // occupancy may transiently exceed the nominal capacity by less than
        // one rename bundle — hence the saturating arithmetic.
        let mut sched_free = [
            self.cfg
                .scheduler_entries
                .saturating_sub(self.scheds[0].len()),
            self.cfg
                .scheduler_entries
                .saturating_sub(self.scheds[1].len()),
            self.cfg
                .scheduler_entries
                .saturating_sub(self.scheds[2].len()),
            self.cfg
                .scheduler_entries
                .saturating_sub(self.scheds[3].len()),
        ];
        let mut n = 0;
        while n < self.cfg.fetch_width && self.fq_head + (n as u64) < self.la_head {
            let f = &self.insts[self.slot(self.fq_head + n as u64)];
            if f.rename_ready > self.cycle {
                break;
            }
            if rob_free == 0 {
                self.stats.rob_stall_cycles += 1;
                break;
            }
            // Conservative structural pre-check: reserve a slot in the
            // scheduler the unoptimized instruction would use (the
            // optimizer can only reduce pressure).
            if let Some(s) = Self::sched_for(f.d.inst.class()) {
                if sched_free[s] == 0 {
                    self.stats.sched_stall_cycles += 1;
                    break;
                }
                sched_free[s] -= 1;
            }
            rob_free -= 1;
            n += 1;
        }
        if n == 0 {
            return;
        }
        // Rename the records in place, then dispatch the results (the
        // result scratch buffer is taken and restored around the loop
        // because `dispatch` needs `&mut self`).
        let mut renamed = std::mem::take(&mut self.renamed_buf);
        renamed.clear();
        let (insts, head, mask) = (&self.insts, self.fq_head, self.mask);
        let bundle = (0..n).map(|i| {
            let f = &insts[((head + i as u64) & mask) as usize];
            (&f.d, f.mispredicted)
        });
        self.opt.rename_records(self.cycle, bundle, &mut renamed);
        for ren in renamed.drain(..) {
            self.dispatch(ren);
        }
        self.renamed_buf = renamed;
    }

    #[expect(
        clippy::expect_used,
        reason = "renamed-class invariants established at rename time"
    )]
    fn dispatch(&mut self, ren: Renamed) {
        debug_assert_eq!(ren.seq, self.fq_head, "rename keeps fetch order");
        let slot = self.slot(self.fq_head);
        self.fq_head += 1;
        let f = &self.insts[slot];
        if let (Some(dst), true) = (ren.dst, ren.dst_new) {
            self.ready_at[dst.index()] = u64::MAX;
        }
        let mut entry = RobEntry {
            ren,
            completed: false,
            complete_at: u64::MAX,
        };
        match entry.ren.class {
            RenamedClass::Done => {
                // Fully handled in the optimizer: completes immediately and
                // only waits for retirement.
                entry.completed = true;
                entry.complete_at = self.cycle;
                self.stats.bypassed_ooo += 1;
                if entry.ren.load_removed {
                    self.stats.loads_bypassed += 1;
                }
                if let (Some(dst), true) = (entry.ren.dst, entry.ren.dst_new) {
                    let v = entry
                        .ren
                        .early_value
                        .or(f.d.result)
                        .expect("early destination has a value");
                    self.ready_at[dst.index()] = self.cycle;
                    self.opt.complete(dst, v, self.cycle);
                    self.opt.release(dst); // producer claim
                }
                if f.mispredicted {
                    debug_assert!(entry.ren.resolved_early || f.d.inst.is_control());
                    self.redirect(self.cycle, true);
                }
            }
            class => {
                self.stats.dispatched_to_ooo += 1;
                let sched = Self::sched_for_renamed(class).expect("non-Done class");
                self.scheds[sched].push(SchedEntry {
                    seq: entry.ren.seq,
                    earliest: self.cycle + self.cfg.sched_delay,
                });
            }
        }
        self.rob[slot] = entry;
    }

    fn redirect(&mut self, resolved_at: u64, early: bool) {
        debug_assert!(self.mispredict_outstanding);
        self.mispredict_outstanding = false;
        self.fetch_resume_at = resolved_at + self.cfg.redirect_delay;
        if early {
            self.stats.early_redirects += 1;
        } else {
            self.stats.late_redirects += 1;
        }
    }

    // ---- issue / execute -------------------------------------------------

    fn issue(&mut self) {
        let mut fu_left = [
            self.cfg.simple_int_fus,
            self.cfg.complex_int_fus,
            self.cfg.fp_fus,
            self.cfg.agen_fus,
        ];
        let mut dports_left = self.cfg.hierarchy.l1d_ports as usize;

        for sched in 0..4 {
            let mut i = 0;
            while i < self.scheds[sched].len() {
                let e = self.scheds[sched][i];
                if e.earliest > self.cycle || !self.srcs_ready(e.seq) {
                    i += 1;
                    continue;
                }
                let idx = self.slot(e.seq);
                let (class, addr_known) = {
                    let r = &self.rob[idx].ren;
                    (r.class, r.addr_known)
                };
                // Functional-unit and port availability.
                let ok = match class {
                    RenamedClass::SimpleInt => take(&mut fu_left[0]),
                    RenamedClass::ComplexInt => take(&mut fu_left[1]),
                    RenamedClass::Fp => take(&mut fu_left[2]),
                    RenamedClass::Load => {
                        let agen_ok = addr_known || fu_left[3] > 0;
                        if agen_ok && dports_left > 0 {
                            if !addr_known {
                                fu_left[3] -= 1;
                            }
                            dports_left -= 1;
                            true
                        } else {
                            false
                        }
                    }
                    RenamedClass::Store => addr_known || take(&mut fu_left[3]),
                    RenamedClass::Done => unreachable!("Done never scheduled"),
                };
                if !ok {
                    i += 1;
                    continue;
                }
                self.scheds[sched].remove(i);
                self.execute(idx);
            }
        }
    }

    fn srcs_ready(&self, seq: u64) -> bool {
        let idx = self.slot(seq);
        self.rob[idx]
            .ren
            .srcs
            .iter()
            .all(|p| self.ready_at[p.index()] <= self.cycle)
    }

    #[expect(
        clippy::expect_used,
        reason = "memory ops carry effective addresses from the emulator"
    )]
    fn execute(&mut self, idx: usize) {
        let now = self.cycle;
        let (class, addr_known) = (self.rob[idx].ren.class, self.rob[idx].ren.addr_known);
        let eff_addr = self.insts[idx].d.eff_addr;
        let exec_lat = match class {
            RenamedClass::SimpleInt => 1,
            RenamedClass::ComplexInt => self.cfg.complex_latency,
            RenamedClass::Fp => self.cfg.fp_latency,
            RenamedClass::Load => {
                let addr = eff_addr.expect("load has an address");
                self.stats.dcache_loads += 1;
                let agen = if addr_known { 0 } else { 1 };
                agen + self.hier.data_access(addr, false)
            }
            RenamedClass::Store => 1, // address generation; data written at retire
            RenamedClass::Done => unreachable!(),
        };
        let complete_at = now + self.cfg.regread_delay + exec_lat;
        let e = &mut self.rob[idx];
        e.complete_at = complete_at;
        if let (Some(dst), true) = (e.ren.dst, e.ren.dst_new) {
            self.ready_at[dst.index()] = complete_at;
        }
        self.completions.push(Reverse((complete_at, e.ren.seq)));
    }

    #[expect(clippy::expect_used, reason = "writers always produce a result value")]
    fn process_completions(&mut self) {
        while let Some(&Reverse((t, seq))) = self.completions.peek() {
            if t > self.cycle {
                break;
            }
            self.completions.pop();
            let idx = self.slot(seq);
            let (srcs, dst, dst_new) = {
                let e = &mut self.rob[idx];
                e.completed = true;
                // inline list: a plain copy, no allocation
                (e.ren.srcs, e.ren.dst, e.ren.dst_new)
            };
            let f = &self.insts[idx];
            let (value, mispredicted, is_control) =
                (f.d.result, f.mispredicted, f.d.inst.is_control());
            for &p in &srcs {
                self.opt.release(p);
            }
            if let (Some(dst), true) = (dst, dst_new) {
                self.opt
                    .complete(dst, value.expect("writer has a result"), t);
                self.opt.release(dst); // producer claim
            }
            if mispredicted && is_control {
                self.redirect(t, false);
            }
        }
    }

    // ---- retire -----------------------------------------------------------

    #[expect(clippy::expect_used, reason = "stores carry effective addresses")]
    fn retire(&mut self) {
        let mut n = 0;
        while n < self.cfg.retire_width && self.rob_head < self.fq_head {
            let slot = self.slot(self.rob_head);
            let e = &self.rob[slot];
            if !e.completed || e.complete_at > self.cycle {
                break;
            }
            let d = &self.insts[slot].d;
            if d.inst.is_store() {
                let addr = d.eff_addr.expect("store has an address");
                self.hier.data_access(addr, true);
            }
            if self.fold_stream {
                self.stream_digest = d.fold_digest(self.stream_digest);
            }
            self.rob_head += 1;
            self.stats.retired += 1;
            n += 1;
        }
    }
}

/// Consults/updates the predictor; returns whether the front end
/// mispredicted this instruction.
fn predict(pred: &mut Predictor, d: &DynInst) -> bool {
    match d.inst {
        Inst::Br { target, .. } => !pred.update_cond(d.pc, d.taken, target),
        Inst::Bru { .. } => false, // direct, decoded in the front end
        Inst::Bsr { .. } => {
            pred.push_return(d.pc.wrapping_add(4));
            false
        }
        Inst::Jmp { rd, ra } => {
            let is_return = rd.is_zero() && ra == Reg::RA;
            if is_return {
                !pred.predict_return(d.next_pc)
            } else {
                !pred.update_indirect(d.pc, d.next_pc)
            }
        }
        _ => false,
    }
}

#[inline]
fn take(n: &mut usize) -> bool {
    if *n > 0 {
        *n -= 1;
        true
    } else {
        false
    }
}

/// Convenience: build and run a machine in one call.
pub fn simulate(cfg: MachineConfig, program: impl Into<Arc<Program>>, max_insts: u64) -> RunReport {
    Machine::new(cfg, program).run(max_insts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use contopt_isa::{r, Asm};

    fn sum_loop(n: i64) -> Program {
        let mut a = Asm::new();
        let arr = a.data_quads(&(0..n as u64).map(|i| i * 3).collect::<Vec<_>>());
        a.li(r(1), arr as i64);
        a.li(r(2), n);
        a.li(r(3), 0);
        a.label("loop");
        a.ldq(r(4), r(1), 0);
        a.addq(r(3), r(4), r(3));
        a.lda(r(1), r(1), 8);
        a.subq(r(2), 1, r(2));
        a.bne(r(2), "loop");
        a.halt();
        a.finish().unwrap()
    }

    #[test]
    fn baseline_runs_to_completion() {
        let rep = simulate(MachineConfig::default_paper(), sum_loop(100), 1_000_000);
        assert_eq!(rep.pipeline.retired, 3 + 100 * 5 + 1);
        assert!(rep.ipc() > 0.1, "ipc = {}", rep.ipc());
        assert!(rep.ipc() <= 6.0);
    }

    #[test]
    fn optimizer_runs_and_checks_values() {
        // The strict checker inside the optimizer panics on any wrong value,
        // so merely completing is a meaningful correctness statement.
        let rep = simulate(
            MachineConfig::default_with_optimizer(),
            sum_loop(200),
            1_000_000,
        );
        assert_eq!(rep.pipeline.retired, 3 + 200 * 5 + 1);
        assert!(rep.optimizer.executed_early > 0);
    }

    #[test]
    fn optimizer_executes_loop_overhead_early() {
        // After value feedback warms up, the loop counter and the array
        // pointer chains collapse (the paper's §2.4 motivating example).
        let rep = simulate(
            MachineConfig::default_with_optimizer(),
            sum_loop(500),
            1_000_000,
        );
        let pct = rep.optimizer.pct_executed_early();
        assert!(
            pct > 10.0,
            "expected substantial early execution, got {pct:.1}%"
        );
    }

    #[test]
    fn optimizer_speeds_up_the_motivating_loop() {
        let base = simulate(MachineConfig::default_paper(), sum_loop(500), 1_000_000);
        let opt = simulate(
            MachineConfig::default_with_optimizer(),
            sum_loop(500),
            1_000_000,
        );
        let s = opt.speedup_over(&base).unwrap();
        assert!(s > 1.0, "speedup = {s:.3}");
    }

    #[test]
    fn mispredict_penalty_visible() {
        // A data-dependent unpredictable branch pattern.
        let mut a = Asm::new();
        // xorshift-ish pseudo-random branch directions
        a.li(r(1), 0x9E3779B97F4A7C15u64 as i64);
        a.li(r(2), 400);
        a.li(r(3), 0);
        a.label("loop");
        a.srl(r(1), 13, r(4));
        a.xor(r(1), r(4), r(1));
        a.sll(r(1), 7, r(4));
        a.xor(r(1), r(4), r(1));
        a.and(r(1), 1, r(5));
        a.beq(r(5), "even");
        a.addq(r(3), 1, r(3));
        a.label("even");
        a.subq(r(2), 1, r(2));
        a.bne(r(2), "loop");
        a.halt();
        let p = a.finish().unwrap();
        let rep = simulate(MachineConfig::default_paper(), p, 1_000_000);
        assert!(
            rep.predictor.cond_mispredictions > 0,
            "the pattern must actually mispredict"
        );
        assert!(rep.pipeline.mispredict_stall_cycles > 0);
    }

    #[test]
    fn stores_then_loads_forward_through_mbc() {
        // Write a small array, then read it back repeatedly: the MBC should
        // remove most of the re-loads.
        let mut a = Asm::new();
        let buf = a.data_zeros(64);
        a.li(r(1), buf as i64);
        a.li(r(2), 77);
        a.stq(r(2), r(1), 0);
        a.stq(r(2), r(1), 8);
        for _ in 0..20 {
            a.ldq(r(3), r(1), 0);
            a.ldq(r(4), r(1), 8);
            a.addq(r(3), r(4), r(5));
        }
        a.halt();
        let rep = simulate(
            MachineConfig::default_with_optimizer(),
            a.finish().unwrap(),
            1_000_000,
        );
        assert!(
            rep.optimizer.loads_removed >= 30,
            "loads_removed = {}",
            rep.optimizer.loads_removed
        );
    }

    #[test]
    fn window_ring_holds_skewed_geometries() {
        // The ring is sized to the reorder buffer plus the fetch queue;
        // a tiny ROB behind a wide front end, or a deep narrow one, must
        // still retire the whole stream without overflowing it.
        for (rob_entries, fetch_width, front_depth) in [(1, 8, 0), (3, 1, 30), (160, 8, 14)] {
            for base in [
                MachineConfig::default_paper(),
                MachineConfig::default_with_optimizer(),
            ] {
                let cfg = MachineConfig {
                    rob_entries,
                    fetch_width,
                    front_depth,
                    ..base
                };
                let rep = simulate(cfg, sum_loop(100), 1_000_000);
                assert_eq!(rep.pipeline.retired, 3 + 100 * 5 + 1);
            }
        }
    }

    #[test]
    fn done_instructions_bypass_the_ooo_core() {
        let mut a = Asm::new();
        for i in 0..50 {
            a.li(r(1), i);
        }
        a.halt();
        let rep = simulate(
            MachineConfig::default_with_optimizer(),
            a.finish().unwrap(),
            1_000_000,
        );
        assert!(rep.pipeline.bypassed_ooo >= 50);
        assert_eq!(
            rep.pipeline.bypassed_ooo + rep.pipeline.dispatched_to_ooo,
            rep.pipeline.retired
        );
    }
}
