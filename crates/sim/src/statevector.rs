//! Ideal (noise-free) statevector simulation.
//!
//! This is the stand-in for Qiskit-Aer's ideal backend: it produces the
//! "noise free reference" series of every TFIM figure and the exact output
//! distributions that the JS/TVD metrics compare against.
//!
//! The apply path is `Circuit::apply_to_state`, which since the SIMD PR
//! rides the same blocked, runtime-dispatched amplitude kernels as the
//! trajectory backend (`qaprox_linalg::simd`) — there is no separate
//! statevector gate loop to keep in sync.

use qaprox_circuit::Circuit;
use qaprox_linalg::Complex64;

/// Runs `circuit` on `|0...0>` and returns the final statevector.
pub fn run(circuit: &Circuit) -> Vec<Complex64> {
    let state = circuit.statevector();
    #[cfg(feature = "strict-invariants")]
    {
        let norm: f64 = state.iter().map(|z| z.norm_sqr()).sum();
        debug_assert!(
            (norm - 1.0).abs() < 1e-9,
            "statevector norm drifted to {norm}"
        );
    }
    state
}

/// Runs `circuit` from an arbitrary initial basis state.
pub fn run_from_basis(circuit: &Circuit, basis: usize) -> Vec<Complex64> {
    let dim = circuit.dim();
    assert!(basis < dim, "initial basis state out of range");
    let mut state = vec![Complex64::ZERO; dim];
    state[basis] = Complex64::ONE;
    circuit.apply_to_state(&mut state);
    state
}

/// Ideal measurement distribution of `circuit` from `|0...0>`.
pub fn probabilities(circuit: &Circuit) -> Vec<f64> {
    run(circuit).iter().map(|z| z.norm_sqr()).collect()
}

/// Ideal measurement distribution from a given basis state.
pub fn probabilities_from_basis(circuit: &Circuit, basis: usize) -> Vec<f64> {
    run_from_basis(circuit, basis)
        .iter()
        .map(|z| z.norm_sqr())
        .collect()
}

/// Deterministic measurement-shot counts from the ideal distribution, via
/// the shared shot sampler ([`crate::sampler`]). This is the one sampling
/// path every backend uses — statevector and trajectory alike — so callers
/// never hand-roll their own inverse-CDF loop.
pub fn sample_shots(circuit: &Circuit, shots: usize, seed: u64) -> Vec<u64> {
    crate::sampler::sample_counts(&probabilities(circuit), shots, seed)
}

/// Empirical finite-shot distribution: [`sample_shots`] normalized.
pub fn sampled_probabilities(circuit: &Circuit, shots: usize, seed: u64) -> Vec<f64> {
    crate::sampler::counts_to_probs(&sample_shots(circuit, shots, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bell_probabilities() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let p = probabilities(&c);
        assert!((p[0] - 0.5).abs() < 1e-13);
        assert!((p[3] - 0.5).abs() < 1e-13);
        assert!(p[1].abs() < 1e-13 && p[2].abs() < 1e-13);
    }

    #[test]
    fn run_from_basis_prepares_state() {
        let c = Circuit::new(3); // empty circuit
        let sv = run_from_basis(&c, 5);
        assert!((sv[5] - Complex64::ONE).abs() < 1e-15);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2).cx(0, 1).rz(0.7, 2).cx(1, 2);
        let p = probabilities(&c);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shot_sampling_is_deterministic_and_converges() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let a = sample_shots(&c, 4096, 11);
        let b = sample_shots(&c, 4096, 11);
        assert_eq!(a, b, "same seed must reproduce the same shots");
        assert_eq!(a.iter().sum::<u64>(), 4096);
        let emp = sampled_probabilities(&c, 65_536, 13);
        let exact = probabilities(&c);
        for (e, p) in emp.iter().zip(&exact) {
            assert!((e - p).abs() < 0.01, "empirical {e} vs exact {p}");
        }
    }

    #[test]
    fn fast_paths_match_the_dense_kernels() {
        // random circuits over CX/CZ/RZ/P/RX and the fixed diagonal gates,
        // from |0...0> and from random states: the CX swap and the diagonal
        // multiply must give every amplitude the dense kernels' bits, up to
        // the sign of exact zeros, and every probability exactly
        use qaprox_circuit::Gate;
        use qaprox_linalg::kernels::{
            apply_1q_vec_blocked, apply_2q_vec_blocked, mat2_to_array, mat4_to_array,
        };
        use qaprox_linalg::random::{random_statevector, Rng, SplitMix64};
        fn dense(c: &Circuit, state: &mut [Complex64]) {
            for inst in c.iter() {
                match *inst.qubits.as_slice() {
                    [q] => apply_1q_vec_blocked(state, q, &mat2_to_array(&inst.gate.matrix())),
                    [a, b] => {
                        apply_2q_vec_blocked(state, a, b, &mat4_to_array(&inst.gate.matrix()))
                    }
                    _ => unreachable!(),
                }
            }
        }
        // `+ 0.0` maps -0 to +0 and leaves every other value alone
        let amp_bits = |v: &[Complex64]| -> Vec<(u64, u64)> {
            v.iter()
                .map(|z| ((z.re + 0.0).to_bits(), (z.im + 0.0).to_bits()))
                .collect()
        };
        let prob_bits =
            |v: &[Complex64]| -> Vec<u64> { v.iter().map(|z| z.norm_sqr().to_bits()).collect() };
        let mut rng = SplitMix64::seed_from_u64(0xFA57_0001);
        let fixed = [Gate::Z, Gate::S, Gate::Sdg, Gate::T, Gate::Tdg];
        let mut cx_lo_first = [false; 2];
        for case in 0..60 {
            let n = rng.gen_range(2..9);
            let mut c = Circuit::new(n);
            for _ in 0..rng.gen_range(10..60usize) {
                let q = rng.gen_range(0..n);
                let p = (q + 1 + rng.gen_range(0..n - 1)) % n;
                let theta = rng.gen::<f64>() * 6.0;
                match rng.gen_range(0..6u8) {
                    0 => {
                        cx_lo_first[usize::from(q < p)] = true;
                        c.cx(q, p)
                    }
                    1 => c.cz(q, p),
                    2 => c.rz(theta, q),
                    3 => {
                        c.push(Gate::P(theta), &[q]);
                        &mut c
                    }
                    4 => c.rx(theta, q),
                    _ => {
                        c.push(fixed[rng.gen_range(0..fixed.len())].clone(), &[q]);
                        &mut c
                    }
                };
            }
            let random = random_statevector(1 << n, &mut rng);
            let mut ground = vec![Complex64::ZERO; 1 << n];
            ground[0] = Complex64::ONE;
            for start in [ground, random] {
                let (mut fast, mut want) = (start.clone(), start);
                c.apply_to_state(&mut fast);
                dense(&c, &mut want);
                assert_eq!(amp_bits(&fast), amp_bits(&want), "case {case}: amplitudes");
                assert_eq!(
                    prob_bits(&fast),
                    prob_bits(&want),
                    "case {case}: probabilities"
                );
            }
        }
        assert_eq!(cx_lo_first, [true; 2], "CX in both orientations");
    }

    #[test]
    fn x_on_basis_flips_bit() {
        let mut c = Circuit::new(2);
        c.x(1);
        let p = probabilities_from_basis(&c, 0b01);
        assert!((p[0b11] - 1.0).abs() < 1e-13);
    }
}
