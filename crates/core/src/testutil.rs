//! Helpers shared by the unit tests of the optimization tables.

use crate::preg::{PhysReg, PregFile};
use crate::symval::SymValue;

/// A seeded xorshift64 sequence.
pub(crate) struct Rng(pub(crate) u64);

impl Rng {
    pub(crate) fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    pub(crate) fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A random symbol: a known constant or an expression over one of the
/// `held` (live) registers.
pub(crate) fn random_sym(rng: &mut Rng, held: &[PhysReg]) -> SymValue {
    if held.is_empty() || rng.below(4) == 0 {
        SymValue::Known(rng.next())
    } else {
        SymValue::Expr {
            base: held[rng.below(held.len())],
            scale: rng.below(4) as u8,
            offset: rng.below(64) as i64 - 32,
        }
    }
}

/// Every register's reference count, plus the free list's order as seen
/// by the next allocations: two files with equal results allocate alike.
pub(crate) fn ref_state(pregs: &PregFile) -> (Vec<u32>, String) {
    let counts = (0..pregs.capacity())
        .map(|i| pregs.ref_count(PhysReg::from_index(i)))
        .collect();
    (counts, format!("{pregs:?}"))
}
