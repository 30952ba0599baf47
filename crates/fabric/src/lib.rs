//! # diverseav-fabric
//!
//! An instruction-level compute-fabric simulator used as the fault-injection
//! substrate for the DiverseAV reproduction (Jha et al., DSN 2022).
//!
//! The paper injects architectural-level faults with NVBitFI (GPU) and PinFI
//! (CPU): the destination register of an executing opcode is XOR-ed with a
//! mask, either for a single dynamic instruction (*transient*) or for every
//! dynamic instance of a selected opcode (*permanent*). Neither tool can run
//! here, so this crate provides a small register-based virtual machine that
//! implements the same fault model natively:
//!
//! * a 64-entry register file of raw 32-bit words (bit-flips XOR raw bits),
//! * a numeric/scalar ISA with floating-point and integer ALU ops, compares,
//!   selects, register-addressed loads/stores, branches, and conversions,
//! * **scalar** execution (CPU profile) and **data-parallel kernel**
//!   execution over N threads (GPU profile),
//! * traps (out-of-bounds access, invalid branch target, watchdog budget)
//!   so that corrupted addresses and loop bounds produce crashes and hangs
//!   organically, mirroring the CPU failure modes observed in the paper,
//! * dynamic-instruction counting for fault-site sampling (the NVBitFI
//!   profiling pass) and for the resource accounting of Table II.
//!
//! ## Example
//!
//! ```
//! use diverseav_fabric::{Fabric, Profile, ProgramBuilder, Reg};
//!
//! # fn main() -> Result<(), diverseav_fabric::Trap> {
//! let mut b = ProgramBuilder::new();
//! let (r0, r1, r2) = (Reg(0), Reg(1), Reg(2));
//! b.ldimm_f(r0, 2.0);
//! b.ldimm_f(r1, 3.0);
//! b.fmul(r2, r0, r1);
//! b.halt();
//! let prog = b.build();
//!
//! let mut fabric = Fabric::new(Profile::Cpu);
//! let mut ctx = fabric.new_context(0);
//! fabric.run_scalar(&prog, &mut ctx, 1_000)?;
//! assert_eq!(ctx.reg_f(r2), 6.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod disasm;
pub mod fault;
pub mod isa;
pub mod program;
pub mod stats;
pub mod vm;

pub use disasm::{disasm, disasm_instr};
pub use fault::{FaultModel, FaultState};
pub use isa::{bits_to_f32, f32_to_bits, Instr, Op, Reg, ALL_OPS, NUM_REGS};
pub use program::{Label, Program, ProgramBuilder};
pub use stats::ExecStats;
pub use vm::{Context, Fabric, LockstepCounters, Profile, Trap, KERNEL_TILE};
