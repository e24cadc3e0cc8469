//! # tempest-stencil
//!
//! Finite-difference machinery: coefficient generation, stencil descriptors
//! and the dense point-update kernels used by the wave propagators.
//!
//! The paper's kernels are explicit finite-difference discretisations of
//! space orders 4, 8 and 12 (§IV.B). This crate computes the FD weights for
//! *any* even order with Fornberg's algorithm ([`coeffs`]), describes the
//! resulting space stencils ([`descriptor`]) including their FLOP/byte
//! footprint ([`metrics`], used by the roofline reproduction of Fig. 11), and
//! provides the inner-loop building blocks ([`kernels`]) that the propagators
//! in `tempest-core` assemble into full time updates:
//!
//! * second-derivative / Laplacian contributions (isotropic acoustic, Fig. 2),
//! * centred first derivatives (the rotated TTI Laplacian, Eq. 2),
//! * staggered first derivatives (elastic velocity–stress, Eq. 3).
//!
//! All kernels operate on raw slices with precomputed strides so the `z`
//! loop vectorises; weights are premultiplied by the `1/hᵏ` grid-spacing
//! factors at construction time, keeping the hot loop multiply–add only.
//!
//! Three interchangeable row-granularity implementations of these kernels —
//! per-point [`backend::Scalar`], autovectorizer-shaped [`backend::Portable`]
//! ([`simd`]) and explicit-intrinsics [`backend::Avx2`] ([`avx2`]) — sit
//! behind the [`backend::KernelBackend`] trait, selected at runtime by the
//! [`backend`] dispatcher (CPU feature detection, `TEMPEST_KERNEL`
//! override). All are bitwise-identical by contract.
//!
//! [`fpenv::FlushDenormals`] sets the flush-to-zero floating-point mode the
//! propagators take around every step, so subnormal wavefield fringes do
//! not fall onto the slow microcode path.

#[cfg(target_arch = "x86_64")]
pub mod avx2;
pub mod backend;
pub mod coeffs;
pub mod descriptor;
pub mod fpenv;
pub mod kernels;
pub mod metrics;
pub mod simd;

pub use backend::{Backend, BackendCaps, KernelBackend};
pub use coeffs::{central_coeffs, fornberg_weights, staggered_coeffs};
pub use descriptor::StencilDescriptor;
pub use kernels::AxisWeights;
pub use simd::{Lane, LANE};
