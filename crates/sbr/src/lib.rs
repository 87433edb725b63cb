//! Number-representation substrate for the Sibia reproduction.
//!
//! This crate implements the three representations the paper reasons about:
//!
//! * plain 2's-complement fixed point produced by **linear symmetric
//!   quantization** ([`quant`]),
//! * the **conventional bit-slice decomposition** used by Bit-fusion and
//!   HNPU — radix-16 digits with a signed most-significant slice and unsigned
//!   lower slices ([`conv`]),
//! * the paper's **signed bit-slice representation (SBR)** — radix-8 signed
//!   digits in `[-7, 7]`, one sign bit per slice, produced by borrowing a
//!   value of 1 from the next-lower slice of a negative number
//!   ([`sbr`]).
//!
//! It also provides the sub-word grouping used by the flexible zero-skipping
//! PE ([`subword`]) and slice-level sparsity statistics ([`stats`]).
//!
//! # Example
//!
//! ```
//! use sibia_sbr::{Precision, sbr::SbrSlices, conv::ConvSlices};
//!
//! let p = Precision::BITS7;
//! // -3 = 1111101 in 7-bit 2's complement.
//! let s = SbrSlices::encode(-3, p);
//! assert_eq!(s.digits(), &[-3, 0]); // low slice -3, high slice 0 (sparse!)
//! let c = ConvSlices::encode(-3, p);
//! assert_eq!(c.digits(), &[13, -1]); // low slice 13, high slice -1 (dense)
//! assert_eq!(s.decode(), -3);
//! assert_eq!(c.decode(), -3);
//! ```

pub mod arith;
pub mod conv;
pub mod encoder;
pub mod error;
pub mod fixed;
pub mod gsbr;
pub mod kernels;
pub mod precision;
pub mod quant;
pub mod sbr;
pub mod stats;
pub mod subword;

pub use conv::ConvSlices;
pub use encoder::SbrUnit;
pub use error::RangeError;
pub use fixed::Fixed;
pub use precision::Precision;
pub use quant::Quantizer;
pub use sbr::SbrSlices;
pub use subword::SubWord;

/// Maximum number of slices any supported precision decomposes into.
///
/// 16-bit data decomposes into five radix-8 SBR slices; conventional radix-16
/// decomposition of a 16-bit container needs four. Six leaves headroom for
/// the 19-bit extension precision.
pub const MAX_SLICES: usize = 6;
