//! Golden digest for everything verify derives from the device noise model.
//!
//! `analyze`'s fingerprint is folded into every serve result key, and the
//! equivalence and commutation charges are certified bounds, so none of
//! them may move a bit unless the noise model itself changes. This test
//! hashes the `to_bits` (or the exact text) of:
//!
//! * `AnalysisReport::fingerprint` and `AnalysisReport::to_json`;
//! * `EquivReport::fingerprint` against two partners per circuit (its
//!   canonical reorder and the circuit without its last gate), plus the
//!   `commute_reorder_{a,b}` example pair;
//! * `charge_to_normal_form` and `swap_cost` over adjacent instruction
//!   pairs;
//! * `NoiseModel::run_density` probabilities, the simulator side of the
//!   same rule;
//!
//! with relaxation on and off, over the example QASM programs, seeded random
//! CX/RZ/RX/U3 circuits on induced ourense and toronto calibrations (each
//! with one CX on an uncoupled pair, which takes the uncoupled-pair
//! fallback) and on ourense at the uniform CNOT errors 0.12 and 0.24 of the
//! error-sensitivity sweep, a calibration with zero gate durations, and one
//! with a qubit at T1 <= 0. At the sweep's errors the depolarizing strength
//! is large enough that its last bit reaches the fidelity bound, so an
//! operation-order change such as `x * (4.0 / 3.0)` for `x * 4.0 / 3.0`
//! fails here. The simulator asserts on non-positive coherence times, so the
//! last case runs the verify calls only.

use qaprox_circuit::{from_qasm, Circuit};
use qaprox_device::devices::{ourense, toronto};
use qaprox_device::Calibration;
use qaprox_linalg::hashing::Hash128;
use qaprox_linalg::random::{Rng, SplitMix64};
use qaprox_sim::NoiseModel;
use qaprox_verify::{
    analyze, canonical_reorder, charge_to_normal_form, check_equivalence, swap_cost,
    AnalyzeOptions, EquivOptions,
};

const NOISE_PIN_DIGEST: &str = "a7ff844a8f92e84dc8d8ae5374ea02e0";

fn qasm(name: &str) -> Circuit {
    let path = format!("{}/../../examples/qasm/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    from_qasm(&text).unwrap_or_else(|e| panic!("{path}: {e:?}"))
}

/// A seeded random CX/RZ/RX/U3 circuit over the calibration's width, with
/// one CX on the first uncoupled pair.
fn random_circuit(cal: &Calibration, len: usize, seed: u64) -> Circuit {
    let n = cal.qubits.len();
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    let coupled: Vec<(usize, usize)> = cal.edges.keys().copied().collect();
    for i in 0..len {
        if i == len / 2 {
            let (a, b) = (0..n)
                .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
                .find(|&(a, b)| cal.edge(a, b).is_none())
                .expect("calibration has an uncoupled pair");
            c.cx(b, a);
            continue;
        }
        let q = rng.gen_range(0..n);
        let theta = rng.gen::<f64>() * 6.0 - 3.0;
        match rng.gen_range(0..4usize) {
            0 => {
                let (a, b) = coupled[rng.gen_range(0..coupled.len())];
                if rng.gen::<f64>() < 0.5 {
                    c.cx(a, b);
                } else {
                    c.cx(b, a);
                }
            }
            1 => {
                c.rz(theta, q);
            }
            2 => {
                c.rx(theta, q);
            }
            _ => {
                c.u3(theta, rng.gen::<f64>() * 3.0, rng.gen::<f64>() - 0.5, q);
            }
        }
    }
    c
}

fn without_last_gate(c: &Circuit) -> Circuit {
    let mut out = Circuit::new(c.num_qubits());
    let insts = c.instructions();
    for inst in &insts[..insts.len().saturating_sub(1)] {
        out.push(inst.gate.clone(), &inst.qubits);
    }
    out
}

/// One calibration and the circuits run on it.
struct Case {
    cal: Calibration,
    circuits: Vec<Circuit>,
    /// False when the calibration is outside what the simulator accepts.
    simulate: bool,
}

fn corpus() -> Vec<Case> {
    let on = |n: usize| ourense().induced(&(0..n).collect::<Vec<_>>());
    let mut cases: Vec<Case> = [
        "commute_reorder_a.qasm",
        "commute_reorder_b.qasm",
        "grover_3q.qasm",
        "tfim_3q_4steps.qasm",
        "toffoli_4q.qasm",
    ]
    .iter()
    .map(|name| {
        let c = qasm(name);
        Case {
            cal: on(c.num_qubits()),
            circuits: vec![c],
            simulate: true,
        }
    })
    .collect();

    let ourense5 = on(5);
    let toronto6 = toronto().induced(&[0, 1, 2, 3, 4, 5]);
    let sweep = [0.12, 0.24].map(|eps| (ourense5.with_uniform_cx_error(eps), 0x5e));
    for (cal, seed) in [(ourense5, 0x51u64), (toronto6, 0x7a)]
        .into_iter()
        .chain(sweep)
    {
        let circuits = (0..2).map(|k| random_circuit(&cal, 24, seed + k)).collect();
        cases.push(Case {
            cal,
            circuits,
            simulate: true,
        });
    }

    let mut zero_time = on(3);
    for q in &mut zero_time.qubits {
        q.sx_time_ns = 0.0;
    }
    for e in zero_time.edges.values_mut() {
        e.cx_time_ns = 0.0;
    }
    let circuits = vec![random_circuit(&zero_time, 16, 0x20)];
    cases.push(Case {
        cal: zero_time,
        circuits,
        simulate: true,
    });

    let mut no_t1 = on(3);
    no_t1.qubits[1].t1_us = 0.0;
    no_t1.qubits[2].t1_us = -5.0;
    let circuits = vec![random_circuit(&no_t1, 16, 0x71)];
    cases.push(Case {
        cal: no_t1,
        circuits,
        simulate: false,
    });
    cases
}

fn digest() -> String {
    let mut h = Hash128::new();
    let (a, b) = (
        qasm("commute_reorder_a.qasm"),
        qasm("commute_reorder_b.qasm"),
    );
    let cal = ourense().induced(&[0, 1]);
    for relax in [true, false] {
        let opts = EquivOptions {
            include_relaxation: relax,
            ..EquivOptions::default()
        };
        h.update(
            check_equivalence(&a, &b, &cal, &opts)
                .fingerprint()
                .as_bytes(),
        );
    }
    for case in corpus() {
        let cal = &case.cal;
        for relax in [true, false] {
            let analyze_opts = AnalyzeOptions {
                include_relaxation: relax,
                ..AnalyzeOptions::default()
            };
            let equiv_opts = EquivOptions {
                include_relaxation: relax,
                ..EquivOptions::default()
            };
            for c in &case.circuits {
                let report = analyze(c, cal, &analyze_opts);
                h.update(report.fingerprint().as_bytes());
                h.update(report.to_json().as_bytes());
                for partner in [canonical_reorder(c), without_last_gate(c)] {
                    let r = check_equivalence(c, &partner, cal, &equiv_opts);
                    h.update(r.fingerprint().as_bytes());
                }
                let insts = c.instructions();
                h.update_u64(charge_to_normal_form(insts, cal, relax).to_bits());
                for w in insts.windows(2) {
                    h.update_u64(swap_cost(&w[0], &w[1], cal, relax).to_bits());
                }
                if case.simulate {
                    let mut model = NoiseModel::from_calibration(cal.clone());
                    model.include_relaxation = relax;
                    let probs = model.run_density(c).probabilities();
                    h.update_u64(probs.len() as u64);
                    for p in probs {
                        h.update_u64(p.to_bits());
                    }
                }
            }
        }
    }
    h.finish_hex()
}

#[test]
fn noise_derived_outputs_keep_their_bits() {
    assert_eq!(digest(), NOISE_PIN_DIGEST);
}
