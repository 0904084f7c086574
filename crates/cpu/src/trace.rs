//! Instruction trace format.
//!
//! Traces are streams of [`TraceInst`] records. Each record carries an
//! operation class, a memory address for loads/stores, and up to two
//! register dependencies expressed as *distances* (how many instructions
//! earlier the producer appeared). Distances larger than the ROB window
//! are treated as already satisfied.

use tus_sim::Addr;

/// Operation classes with the Table I execution latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// 1-cycle integer ALU op.
    IntAlu,
    /// 4-cycle integer multiply.
    IntMul,
    /// 12-cycle integer divide.
    IntDiv,
    /// 5-cycle FP add.
    FpAdd,
    /// 5-cycle FP multiply.
    FpMul,
    /// 12-cycle FP divide.
    FpDiv,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Full memory fence (`mfence`): commits only once every earlier
    /// store is globally visible.
    Fence,
}

impl OpClass {
    /// Whether this is a memory operation.
    pub fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }

    /// Whether the op writes a floating-point register.
    pub fn is_fp(self) -> bool {
        matches!(self, OpClass::FpAdd | OpClass::FpMul | OpClass::FpDiv)
    }

    /// Whether the op allocates a destination register (all but stores
    /// and fences).
    pub fn needs_reg(self) -> bool {
        !matches!(self, OpClass::Store | OpClass::Fence)
    }

    /// Whether the op can only execute on a general (Int/FP/SIMD) ALU
    /// (everything but the plain integer ALU op).
    pub fn needs_general_alu(self) -> bool {
        matches!(
            self,
            OpClass::IntMul | OpClass::IntDiv | OpClass::FpAdd | OpClass::FpMul | OpClass::FpDiv
        )
    }
}

/// One instruction of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceInst {
    /// Operation class.
    pub op: OpClass,
    /// Byte address for loads/stores (ignored otherwise).
    pub addr: Addr,
    /// Access size in bytes (1, 2, 4 or 8) for loads/stores.
    pub size: u8,
    /// Value written by stores (ignored otherwise).
    pub value: u64,
    /// Distance to the first register producer (0 = no dependency).
    pub dep1: u32,
    /// Distance to the second register producer (0 = no dependency).
    pub dep2: u32,
}

impl TraceInst {
    /// A dependency-free ALU op.
    pub fn alu() -> Self {
        TraceInst {
            op: OpClass::IntAlu,
            addr: Addr::new(0),
            size: 0,
            value: 0,
            dep1: 0,
            dep2: 0,
        }
    }

    /// A load of `size` bytes at `addr`.
    pub fn load(addr: Addr, size: u8) -> Self {
        TraceInst {
            op: OpClass::Load,
            addr,
            size,
            value: 0,
            dep1: 0,
            dep2: 0,
        }
    }

    /// A store of `value` (`size` bytes) to `addr`.
    pub fn store(addr: Addr, size: u8, value: u64) -> Self {
        TraceInst {
            op: OpClass::Store,
            addr,
            size,
            value,
            dep1: 0,
            dep2: 0,
        }
    }

    /// A full memory fence.
    pub fn fence() -> Self {
        TraceInst {
            op: OpClass::Fence,
            addr: Addr::new(0),
            size: 0,
            value: 0,
            dep1: 0,
            dep2: 0,
        }
    }

    /// Returns `self` with the given dependency distances.
    pub fn with_deps(mut self, dep1: u32, dep2: u32) -> Self {
        self.dep1 = dep1;
        self.dep2 = dep2;
        self
    }
}

/// A source of trace instructions.
///
/// Implementations are typically generators (see the `tus-workloads`
/// crate) so billion-instruction traces never need to be materialized.
pub trait TraceSource {
    /// Produces the next instruction, or `None` at end of trace.
    fn next_inst(&mut self) -> Option<TraceInst>;
}

/// A trace backed by a vector (tests, litmus threads).
#[derive(Debug, Clone, Default)]
pub struct VecTrace {
    insts: Vec<TraceInst>,
    pos: usize,
}

impl VecTrace {
    /// Creates a trace over `insts`.
    pub fn new(insts: Vec<TraceInst>) -> Self {
        VecTrace { insts, pos: 0 }
    }

    /// Remaining instructions.
    pub fn remaining(&self) -> usize {
        self.insts.len() - self.pos
    }
}

impl TraceSource for VecTrace {
    fn next_inst(&mut self) -> Option<TraceInst> {
        let i = self.insts.get(self.pos).copied();
        if i.is_some() {
            self.pos += 1;
        }
        i
    }
}

impl FromIterator<TraceInst> for VecTrace {
    fn from_iter<I: IntoIterator<Item = TraceInst>>(iter: I) -> Self {
        VecTrace::new(iter.into_iter().collect())
    }
}

/// Adapts a closure into a [`TraceSource`].
pub struct FnTrace<F>(pub F);

impl<F: FnMut() -> Option<TraceInst>> TraceSource for FnTrace<F> {
    fn next_inst(&mut self) -> Option<TraceInst> {
        (self.0)()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_classification() {
        assert!(OpClass::Load.is_mem());
        assert!(OpClass::Store.is_mem());
        assert!(!OpClass::Fence.is_mem());
        assert!(OpClass::FpDiv.is_fp());
        assert!(!OpClass::IntMul.is_fp());
        assert!(OpClass::IntMul.needs_general_alu());
        assert!(!OpClass::IntAlu.needs_general_alu());
    }

    #[test]
    fn vec_trace_yields_in_order() {
        let mut t = VecTrace::new(vec![TraceInst::alu(), TraceInst::fence()]);
        assert_eq!(t.remaining(), 2);
        assert_eq!(t.next_inst().map(|i| i.op), Some(OpClass::IntAlu));
        assert_eq!(t.next_inst().map(|i| i.op), Some(OpClass::Fence));
        assert_eq!(t.next_inst(), None);
        assert_eq!(t.next_inst(), None);
    }

    #[test]
    fn builders_set_fields() {
        let s = TraceInst::store(Addr::new(8), 4, 99).with_deps(1, 2);
        assert_eq!(s.op, OpClass::Store);
        assert_eq!(s.value, 99);
        assert_eq!((s.dep1, s.dep2), (1, 2));
        let l = TraceInst::load(Addr::new(16), 8);
        assert_eq!(l.op, OpClass::Load);
        assert_eq!(l.size, 8);
    }

    #[test]
    fn fn_trace_adapts_closures() {
        let mut n = 0;
        let mut t = FnTrace(move || {
            n += 1;
            if n <= 2 {
                Some(TraceInst::alu())
            } else {
                None
            }
        });
        assert!(t.next_inst().is_some());
        assert!(t.next_inst().is_some());
        assert!(t.next_inst().is_none());
    }
}
