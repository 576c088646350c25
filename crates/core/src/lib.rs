//! # contopt — continuous optimization
//!
//! A faithful implementation of the table-based hardware dynamic optimizer
//! from *Continuous Optimization* (Fahs, Rafacz, Patel & Lumetta, ISCA
//! 2005 / UILU-ENG-04-2207). The optimizer lives in the rename stage of an
//! out-of-order processor and applies dataflow optimizations to **every**
//! fetched instruction — no profiling, no trace cache:
//!
//! * **Constant propagation / reassociation (CP/RA)** — each architectural
//!   register's RAT entry carries a symbolic value
//!   `(base_preg << scale) ± offset` ([`SymValue`]); adds, subtracts,
//!   shifts, and scaled adds fold into it ([`sym_add`], [`sym_shl`], …).
//! * **Redundant load elimination / store forwarding (RLE/SF)** — a
//!   128-entry [`Mbc`] keyed by aligned address + offset + size forwards
//!   recently stored or loaded values, converting loads into moves.
//! * **Value feedback** — execution results return to the tables after a
//!   transmission delay ([`FeedbackQueue`]) and CAM-convert symbolic
//!   entries into known constants.
//! * **Early execution** — simple instructions with fully known inputs
//!   execute on the rename-stage ALUs ([`Optimizer::rename_bundle`]
//!   returns them as [`RenamedClass::Done`]), including early branch
//!   resolution, which shortens the misprediction penalty.
//!
//! Physical registers are managed by a reference-counting file
//! ([`PregFile`]) because optimization extends register lifetimes past the
//! classic deallocation point (§3.1).
//!
//! Each optimization is a pluggable pass unit behind the [`OptPass`]
//! trait (see the [`passes`] module); a [`PassSet`] compiles down to the
//! flat [`OptimizerConfig`] the rename engine executes, and the two
//! bridge losslessly in both directions.
//!
//! # Examples
//!
//! Drive a whole simulation through the `contopt_sim` builder facade —
//! the passes registered here are this crate's pass units:
//!
//! ```
//! use contopt_sim::{Pass, SimSession};
//! use contopt_sim::isa::{Asm, r};
//!
//! let mut a = Asm::new();
//! a.li(r(1), 40);
//! a.addq(r(1), 2, r(2));
//! a.halt();
//!
//! let session = SimSession::builder()
//!     .program(a.finish()?)
//!     .passes([Pass::cp_ra(), Pass::rle_sf(), Pass::value_feedback(), Pass::early_exec()])
//!     .build()?;
//! let report = session.run();
//! // Both instructions arrive in one 4-wide rename packet: the `li`
//! // executes on the rename-stage ALUs, while the dependent add is
//! // serial-addition-limited (§3.1) and goes to the OoO core.
//! assert_eq!(report.optimizer.executed_early, 1);
//! assert_eq!(report.optimizer.chain_limited, 1);
//! assert_eq!(report.pipeline.dispatched_to_ooo, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Or use the rename/optimize unit directly, one bundle at a time:
//!
//! ```
//! use contopt::{Optimizer, OptimizerConfig, RenameReq, RenamedClass};
//! use contopt_emu::{Emulator, Step};
//! use contopt_isa::{Asm, r};
//!
//! let mut a = Asm::new();
//! a.li(r(1), 40);
//! a.addq(r(1), 2, r(2));
//! a.halt();
//! let mut emu = Emulator::new(a.finish()?);
//! let mut opt = Optimizer::new(OptimizerConfig::default(), 512, |_| 0);
//!
//! let mut renamed = Vec::new();
//! let mut cycle = 0;
//! while let Step::Inst(d) = emu.step()? {
//!     // One instruction per bundle here; the pipeline batches up to four.
//!     renamed.extend(opt.rename_bundle(cycle, &[RenameReq { d, mispredicted: false }]));
//!     cycle += 1;
//! }
//! assert_eq!(renamed[0].class, RenamedClass::Done); // li executes early
//! assert_eq!(renamed[1].early_value, Some(42));     // 40 + 2 propagated
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod feedback;
mod mbc;
mod optimizer;
pub mod passes;
mod preg;
mod rat;
mod stats;
mod symval;
#[cfg(test)]
mod testutil;

pub use config::{ConfigFieldError, ConfigScalar, OptimizerConfig};
pub use feedback::{Feedback, FeedbackQueue};
pub use mbc::{Mbc, MbcStats};
pub use optimizer::{Optimizer, RenameReq, Renamed, RenamedClass};
pub use passes::{CpRa, EarlyExec, OptPass, Pass, PassId, PassSet, RleSf, ValueFeedback};
pub use preg::{PhysReg, PregFile, SrcList, MAX_SRCS};
pub use rat::SymRat;
pub use stats::{pct, OptStats, PassStats, ENGINE_BLOCK};
pub use symval::{
    sym_add, sym_add_imm, sym_scaled_add, sym_shl, sym_sub, Folded, SymValue, MAX_SCALE,
};
