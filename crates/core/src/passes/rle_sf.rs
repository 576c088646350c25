//! Redundant load elimination / store forwarding — the [`super::RleSf`]
//! pass (paper §3.2).
//!
//! A Memory Bypass Cache ([`crate::Mbc`]) keyed by aligned address +
//! offset + size records the symbolic value most recently stored to or
//! loaded from each location. Known-address loads that hit are converted
//! to moves or expressions (and, with fully-known data, execute early);
//! known-address stores insert their data's symbol. Stores through
//! *unknown* addresses proceed speculatively — every forward is verified
//! against the functional oracle, and a stale entry rejects the forward
//! and invalidates itself — or conservatively flush the whole MBC when
//! [`crate::config::OptimizerConfig::flush_mbc_on_unknown_store`] is set.
//! Chained memory operations within one bundle are bounded by
//! [`crate::config::OptimizerConfig::mem_chain_depth`] (Figure 10's
//! "& 1 mem" variant).

use crate::optimizer::{Bundle, Optimizer, Renamed, RenamedClass};
use crate::preg::SrcList;
use crate::symval::SymValue;
use contopt_emu::DynInst;
use contopt_isa::{ArchReg, Inst, MemSize};

impl Optimizer {
    #[expect(
        clippy::expect_used,
        reason = "the decoder only routes memory ops here"
    )]
    pub(crate) fn process_load(&mut self, d: &DynInst, bundle: &mut Bundle) -> Renamed {
        self.stats.engine.mem_ops += 1;
        self.stats.engine.loads += 1;
        let (rb, disp) = d.inst.mem_addr_spec().expect("load has address spec");
        let size = d.inst.mem_size().expect("load has size");
        let is_fp = matches!(d.inst, Inst::FLd { .. });
        let (addr_sym, inh_adds, inh_mbcs) = self.fold_addr(rb, disp, bundle);
        let addr_known = addr_sym.known();

        if let Some(a) = addr_known {
            assert_eq!(
                Some(a),
                d.eff_addr,
                "strict check: early address {a:#x} != oracle {:?} for `{}`",
                d.eff_addr,
                d.inst
            );
            self.stats.engine.mem_addr_generated += 1;
        }

        let dst_arch = d.inst.dst();

        // RLE/SF: only with a known address, the feature enabled, and the
        // intra-bundle memory-chain budget unspent.
        if let (Some(a), Some(dst_a)) = (addr_known, dst_arch) {
            if self.optimizing() && self.cfg.enable_rle_sf {
                let chained = inh_mbcs + 1 > self.cfg.mem_chain_depth + 1
                    || (bundle.mbc_written.contains(&(a & !7)) && self.cfg.mem_chain_depth == 0);
                if chained {
                    self.stats.rle_sf.mem_chain_limited += 1;
                } else if self.early_exec_ok() {
                    // Forwarding completes the load at the rename stage, so
                    // it additionally requires the EarlyExec pass; without
                    // it RLE/SF only generates addresses and maintains the
                    // MBC.
                    if let Some(data) = self.mbc.lookup(a, size) {
                        if let Some(r) = self.try_forward(d, a, size, data, is_fp, inh_mbcs, bundle)
                        {
                            return r;
                        }
                    }
                }
                // Miss (or rejected forward): install this load's
                // destination for future reuse.
                let p = self.alloc_dst(d);
                self.rat.write(dst_a, p, SymValue::reg(p), &mut self.pregs);
                self.mbc.insert(a, size, SymValue::reg(p), &mut self.pregs);
                bundle.mbc_written.push(a & !7);
                bundle.record(dst_arch, inh_adds, inh_mbcs + 1);
                let mut r = self.renamed(d, RenamedClass::Load, SrcList::new(), Some(p), true);
                r.addr_known = true;
                return r;
            }
        }

        // Ordinary load (unknown address, or RLE/SF unavailable).
        let srcs = if addr_known.is_some() {
            SrcList::new()
        } else {
            SrcList::one(self.rat.map(ArchReg::from(rb)))
        };
        self.hold_srcs(&srcs);
        let (dst, dst_new) = match dst_arch {
            Some(a) => {
                let p = self.alloc_dst(d);
                self.rat.write(a, p, SymValue::reg(p), &mut self.pregs);
                (Some(p), true)
            }
            None => (None, false),
        };
        bundle.record(dst_arch, 0, 0);
        let mut r = self.renamed(d, RenamedClass::Load, srcs, dst, dst_new);
        r.addr_known = addr_known.is_some();
        r
    }

    /// Attempts to forward MBC `data` into the load; returns `None` (after
    /// invalidating the stale entry) if strict value checking rejects it.
    #[allow(clippy::too_many_arguments)] // one call site; mirrors the §3.2 datapath inputs
    #[expect(
        clippy::expect_used,
        reason = "forwarding candidates were pre-checked for a destination"
    )]
    pub(crate) fn try_forward(
        &mut self,
        d: &DynInst,
        addr: u64,
        size: MemSize,
        data: SymValue,
        is_fp: bool,
        inh_mbcs: u32,
        bundle: &mut Bundle,
    ) -> Option<Renamed> {
        let dst_a = d.inst.dst().expect("forwarding checked dst");
        // The stored register value, evaluated with the oracle.
        let stored = data.eval_with(|p| self.oracle[p.index()]);
        let loaded = extend(truncate(stored, size), size, signedness(&d.inst));
        if Some(loaded) != d.result {
            // Stale entry (speculative unknown-address store wrote this
            // location since) or a width-change mismatch: reject.
            self.stats.rle_sf.mbc_rejects += 1;
            self.mbc.invalidate(addr, &mut self.pregs);
            return None;
        }
        match data {
            SymValue::Known(_) => {
                // The load's value is fully known: executed in the optimizer.
                let p = self.alloc_dst(d);
                self.rat
                    .write(dst_a, p, SymValue::Known(loaded), &mut self.pregs);
                self.stats.rle_sf.loads_removed += 1;
                self.stats.early_exec.executed_early += 1;
                bundle.record(d.inst.dst(), 1, inh_mbcs + 1);
                let mut r = self.renamed(d, RenamedClass::Done, SrcList::new(), Some(p), true);
                r.early_value = Some(loaded);
                r.load_removed = true;
                r.addr_known = true;
                Some(r)
            }
            e @ SymValue::Expr { base, .. } if e.is_plain_reg() => {
                // Pure move: the destination aliases the forwarding register.
                self.rat.write(dst_a, base, e, &mut self.pregs);
                self.stats.rle_sf.loads_removed += 1;
                self.stats.early_exec.executed_early += 1;
                bundle.record(d.inst.dst(), 0, inh_mbcs + 1);
                let mut r = self.renamed(d, RenamedClass::Done, SrcList::new(), Some(base), false);
                r.load_removed = true;
                r.addr_known = true;
                Some(r)
            }
            e @ SymValue::Expr { base, .. } => {
                if is_fp || size != MemSize::Quad {
                    // A non-trivial integer expression cannot be forwarded
                    // into an FP register or through a width change; leave
                    // the entry and fall back to a normal (known-address)
                    // load.
                    return None;
                }
                // The load becomes the single-cycle expression
                // (base << scale) + offset: removed from the memory system.
                self.hold_srcs(&[base]);
                let p = self.alloc_dst(d);
                self.rat.write(dst_a, p, e, &mut self.pregs);
                self.stats.rle_sf.loads_removed += 1;
                bundle.record(d.inst.dst(), 1, inh_mbcs + 1);
                let mut r = self.renamed(
                    d,
                    RenamedClass::SimpleInt,
                    SrcList::one(base),
                    Some(p),
                    true,
                );
                r.load_removed = true;
                r.addr_known = true;
                Some(r)
            }
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "the decoder only routes memory ops here"
    )]
    pub(crate) fn process_store(&mut self, d: &DynInst, bundle: &mut Bundle) -> Renamed {
        self.stats.engine.mem_ops += 1;
        let (rb, disp) = d.inst.mem_addr_spec().expect("store has address spec");
        let size = d.inst.mem_size().expect("store has size");
        let (addr_sym, _inh_adds, _inh_mbcs) = self.fold_addr(rb, disp, bundle);
        let addr_known = addr_sym.known();

        // Data source view.
        let data_arch = d.inst.srcs()[0].expect("store has a data source");
        let data_view = self.view(data_arch, bundle);
        let data_sym = if self.cfg.enabled && self.cfg.optimize {
            data_view.sym
        } else {
            SymValue::reg(data_view.map)
        };

        let mut srcs = SrcList::new();
        if data_sym.known().is_none() {
            srcs.push(data_view.map);
        }
        if addr_known.is_none() {
            srcs.push(self.rat.map(ArchReg::from(rb)));
        }
        self.hold_srcs(&srcs);

        if let Some(a) = addr_known {
            assert_eq!(
                Some(a),
                d.eff_addr,
                "strict check: early store address {a:#x} != oracle {:?}",
                d.eff_addr
            );
            self.stats.engine.mem_addr_generated += 1;
            if self.optimizing() && self.cfg.enable_rle_sf {
                // Store forwarding: record the data's symbolic value. Use
                // the mapping register when the symbol is a non-trivial
                // expression of the *data* register (the stored value equals
                // the register's value, which the mapping names directly).
                let recorded = match data_sym {
                    k @ SymValue::Known(_) => k,
                    e @ SymValue::Expr { .. } if e.is_plain_reg() => e,
                    _ => SymValue::reg(data_view.map),
                };
                self.mbc.insert(a, size, recorded, &mut self.pregs);
                bundle.mbc_written.push(a & !7);
            }
        } else if self.optimizing() && self.cfg.enable_rle_sf && self.cfg.flush_mbc_on_unknown_store
        {
            self.mbc.flush(&mut self.pregs);
        }

        bundle.record(None, 0, 0);
        let mut r = self.renamed(d, RenamedClass::Store, srcs, None, false);
        r.addr_known = addr_known.is_some();
        r
    }
}

fn signedness(inst: &Inst) -> bool {
    matches!(inst, Inst::Ld { signed: true, .. })
}

#[inline]
fn truncate(v: u64, size: MemSize) -> u64 {
    match size {
        MemSize::Byte => v & 0xff,
        MemSize::Word => v & 0xffff,
        MemSize::Long => v & 0xffff_ffff,
        MemSize::Quad => v,
    }
}

#[inline]
fn extend(raw: u64, size: MemSize, signed: bool) -> u64 {
    if !signed {
        return raw;
    }
    match size {
        MemSize::Byte => raw as u8 as i8 as i64 as u64,
        MemSize::Word => raw as u16 as i16 as i64 as u64,
        MemSize::Long => raw as u32 as i32 as i64 as u64,
        MemSize::Quad => raw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncate_and_extend_match_memory_semantics() {
        assert_eq!(truncate(0x1234_5678_9abc_def0, MemSize::Byte), 0xf0);
        assert_eq!(truncate(0x1234_5678_9abc_def0, MemSize::Word), 0xdef0);
        assert_eq!(truncate(0x1234_5678_9abc_def0, MemSize::Long), 0x9abc_def0);
        assert_eq!(extend(0xf0, MemSize::Byte, true), 0xffff_ffff_ffff_fff0);
        assert_eq!(extend(0xf0, MemSize::Byte, false), 0xf0);
        assert_eq!(
            extend(0x9abc_def0, MemSize::Long, true),
            0xffff_ffff_9abc_def0
        );
    }
}
