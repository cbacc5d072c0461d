//! Arbitrary-precision fixed-width two's-complement integers.
//!
//! CoreDSL's type system is built around `signed<w>` / `unsigned<w>` integers
//! of *arbitrary* bitwidth (paper §2.3). This crate provides [`ApInt`], the
//! value representation shared by the CoreDSL constant evaluator, the HIR and
//! LIL interpreters, and the RTL netlist simulator.
//!
//! An [`ApInt`] is a bit pattern of a fixed width; *signedness is not stored*
//! but supplied by each operation (mirroring hardware, where a wire bundle has
//! no sign until an operator interprets it). All operations are exact within
//! their stated result width; arithmetic wraps modulo `2^width` like RTL.
//!
//! The simulators evaluate every net of every cycle through this crate, so
//! its cost is their cost. A value of up to 128 bits keeps its limbs inline
//! (as LLVM's `APInt` keeps single-word values inline) and only a wider one
//! allocates; every operation builds its result in one pass, a whole limb at
//! a time, without temporary values. The small operations are `#[inline]`
//! because their callers live in other crates, where a call and a generic
//! limb loop would cost more than the operation itself, and the structural
//! ones (`extract`, `concat`, constant shifts, `sext`) work on an inline
//! value as one `u128`. `tests/model` holds a bit-serial reference model
//! that the limb-level operations are property-tested against on both
//! sides of the 64- and 128-bit boundaries.
//!
//! # Examples
//!
//! ```
//! use bits::ApInt;
//!
//! let a = ApInt::from_u64(200, 8);
//! let b = ApInt::from_u64(100, 8);
//! // 8-bit wrapping add, like a hardware adder:
//! assert_eq!(a.add(&b).to_u64(), 44);
//! // Widen first to keep all bits, like CoreDSL's bitwidth-aware `+`:
//! assert_eq!(a.zext(9).add(&b.zext(9)).to_u64(), 300);
//! ```

mod apint;
mod convert;
mod ops;
mod parse;

pub use apint::ApInt;

/// Maximum bitwidth supported by the toolchain.
///
/// CoreDSL allows arbitrary widths; we cap them at a generous bound so that
/// malformed inputs (e.g. `unsigned<999999999>`) fail fast with a clear error
/// instead of exhausting memory.
pub const MAX_WIDTH: u32 = 1 << 20;

#[cfg(test)]
mod tests;
