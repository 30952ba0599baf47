//! Execution statistics: dynamic-instruction accounting.
//!
//! Used for (i) the NVBitFI-style profiling pass that sizes the transient
//! fault-site space, and (ii) the compute-utilization proxy of Table II.

use crate::isa::{Op, ALL_OPS};
use std::fmt;
use std::ops::AddAssign;

/// Dynamic-instruction counters for one fabric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecStats {
    total: u64,
    per_op: [u64; ALL_OPS.len()],
    /// Number of scalar program runs + kernel launches.
    launches: u64,
}

impl Default for ExecStats {
    fn default() -> Self {
        ExecStats { total: 0, per_op: [0; ALL_OPS.len()], launches: 0 }
    }
}

impl ExecStats {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total dynamic instructions executed.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Dynamic instructions executed for one opcode.
    #[inline]
    pub fn count(&self, op: Op) -> u64 {
        self.per_op[op.index()]
    }

    /// Number of scalar runs and kernel launches recorded.
    #[inline]
    pub fn launches(&self) -> u64 {
        self.launches
    }

    /// Record one executed instruction.
    #[inline]
    pub(crate) fn record(&mut self, op: Op) {
        self.total += 1;
        self.per_op[op.index()] += 1;
    }

    /// Fold per-opcode counts gathered outside these counters — a
    /// committed lockstep tile's — into them with one elementwise add.
    #[inline]
    pub(crate) fn add_op_counts(&mut self, counts: &[u64; ALL_OPS.len()]) {
        for (a, &n) in self.per_op.iter_mut().zip(counts) {
            *a += n;
        }
        self.total += counts.iter().sum::<u64>();
    }

    /// Record one program run / kernel launch.
    #[inline]
    pub(crate) fn record_launch(&mut self) {
        self.launches += 1;
    }

    /// Opcodes that executed at least once, with their counts.
    ///
    /// Permanent-fault campaigns enumerate exactly this set, mirroring the
    /// paper's "the Sensorimotor agent uses 131 Intel opcodes" profiling.
    pub fn used_ops(&self) -> Vec<(Op, u64)> {
        ALL_OPS
            .iter()
            .filter_map(|&op| {
                let n = self.count(op);
                (n > 0).then_some((op, n))
            })
            .collect()
    }
}

impl AddAssign<&ExecStats> for ExecStats {
    fn add_assign(&mut self, rhs: &ExecStats) {
        self.total += rhs.total;
        self.launches += rhs.launches;
        for (a, b) in self.per_op.iter_mut().zip(rhs.per_op.iter()) {
            *a += b;
        }
    }
}

impl fmt::Display for ExecStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} dynamic instructions over {} launches", self.total, self.launches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut s = ExecStats::new();
        s.record(Op::FAdd);
        s.record(Op::FAdd);
        s.record(Op::Ld);
        s.record_launch();
        assert_eq!(s.total(), 3);
        assert_eq!(s.count(Op::FAdd), 2);
        assert_eq!(s.count(Op::Ld), 1);
        assert_eq!(s.count(Op::Halt), 0);
        assert_eq!(s.launches(), 1);
    }

    #[test]
    fn used_ops_filters_zero_counts() {
        let mut s = ExecStats::new();
        s.record(Op::FMul);
        let used = s.used_ops();
        assert_eq!(used, vec![(Op::FMul, 1)]);
    }

    #[test]
    fn add_assign_merges() {
        let mut a = ExecStats::new();
        a.record(Op::FAdd);
        let mut b = ExecStats::new();
        b.record(Op::FAdd);
        b.record(Op::Halt);
        b.record_launch();
        a += &b;
        assert_eq!(a.total(), 3);
        assert_eq!(a.count(Op::FAdd), 2);
        assert_eq!(a.launches(), 1);
    }

    #[test]
    fn display_nonempty() {
        assert!(!ExecStats::new().to_string().is_empty());
    }
}
