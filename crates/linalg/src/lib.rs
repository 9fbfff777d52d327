//! # qaprox-linalg
//!
//! The dense complex linear-algebra substrate for the `qaprox` workspace —
//! everything the quantum stack needs, implemented from scratch:
//!
//! * [`Complex64`] — a `Copy` complex double;
//! * [`Matrix`] — dense row-major complex matrices with the usual algebra;
//! * [`kernels`] — gate-application kernels that never materialize `2^n x 2^n`
//!   embeddings (the hot loops of every simulator and of synthesis);
//! * [`solve`](mod@solve) — Gauss-Jordan inversion / linear solves;
//! * [`expm`](crate::expm::expm) — Padé scaling-and-squaring matrix exponential,
//!   with an allocation-free, bit-identical 4x4 form for QFast's blocks
//!   ([`expm_i_su4`]);
//! * [`polar`](crate::polar::polar_unitary) — nearest-unitary projection
//!   (Newton iteration), the core step of QFactor-style optimization;
//! * [`decomp`](crate::decomp::zyz_decompose) — ZYZ/U3 Euler decomposition;
//! * [`eigh`](crate::eigh::eigh) — Hermitian eigendecomposition (Jacobi),
//!   spectral matrix functions, von Neumann entropy;
//! * [`pauli`] — Pauli strings and the su(2^n) Hermitian basis;
//! * [`random`] — a seedable in-repo RNG ([`random::SplitMix64`]),
//!   Haar-distributed unitaries, and random states;
//! * [`parallel`] — order-preserving parallel map over scoped threads,
//!   serial at a thread budget of 1;
//! * [`simd`] — runtime-dispatched AVX2 amplitude kernels, bit-identical to
//!   the scalar fallback (`QAPROX_SIMD=0` forces scalar).

#![warn(missing_docs)]

pub mod complex;
pub mod decomp;
pub mod eigh;
pub mod expm;
pub mod hashing;
pub mod kernels;
pub mod matrix;
pub mod parallel;
pub mod pauli;
pub mod polar;
pub mod random;
pub mod simd;
pub mod solve;

pub use complex::{c64, Complex64};
pub use decomp::{u3_array, u3_matrix, zyz_decompose, Zyz};
pub use eigh::{eigh, expm_i_hermitian_spectral, von_neumann_entropy, Eigh};
pub use expm::{expm, expm_i_hermitian, expm_i_su4};
pub use hashing::{hash128, hash128_hex, Hash128};
pub use matrix::Matrix;
pub use polar::{nearest_unitary, polar_unitary};
pub use random::{Rng, SplitMix64};
pub use simd::{kernel_dispatch, selected_kernel, simd_available, KernelDispatch};
pub use solve::{invert, solve, SingularMatrix};
