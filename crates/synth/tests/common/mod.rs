//! Synthesis cases and the bit-exact stream digest shared by the golden
//! stream and thread-invariance suites. The cases are the two synthesis
//! configurations of the `pipeline_paper` benchmark workload: QSearch on a
//! 3-qubit TFIM timestep, and QSearch plus QFast on the 4-qubit Toffoli.

// Each suite that includes this module uses only some of its cases.
#![allow(dead_code)]

use qaprox_algos::mct::mct_unitary;
use qaprox_algos::tfim::{tfim_circuit, TfimParams};
use qaprox_circuit::Gate;
use qaprox_device::Topology;
use qaprox_linalg::hashing::hash128;
use qaprox_linalg::Matrix;
use qaprox_opt::LbfgsParams;
use qaprox_synth::{
    qfast, qsearch, InstantiateConfig, QFastConfig, QSearchConfig, SynthesisOutput,
};

/// Digest of [`tfim_step`]'s stream, recorded before the instantiation
/// objective was rewritten for speed.
pub const TFIM_STEP_DIGEST: &str = "e87b37235bc2d128bdc3e6c517e7b41a";

/// Digest of [`toffoli_qfast`]'s stream, recorded before the QFast coarse
/// objective was rewritten for speed.
pub const TOFFOLI_QFAST_DIGEST: &str = "4396a35e536f0c09e47cd3d2b7da4ff1";

/// Serializes the intermediate stream bit-exactly and hashes it: every
/// circuit's gates, qubits and parameter bits, plus every `hs_distance` as
/// raw bits (signed zeros included).
pub fn stream_digest(out: &SynthesisOutput) -> String {
    let mut bytes = Vec::new();
    let mut put = |v: u64| bytes.extend_from_slice(&v.to_le_bytes());
    put(out.nodes_evaluated as u64);
    put(out.intermediates.len() as u64);
    for ap in &out.intermediates {
        put(ap.hs_distance.to_bits());
        put(ap.circuit.num_qubits() as u64);
        for inst in ap.circuit.iter() {
            for &q in &inst.qubits {
                put(q as u64);
            }
            match inst.gate {
                Gate::U3(t, p, l) => {
                    put(1);
                    put(t.to_bits());
                    put(p.to_bits());
                    put(l.to_bits());
                }
                Gate::CX => put(2),
                ref other => panic!("non-native gate {} in synthesis output", other.name()),
            }
        }
    }
    let (hi, lo) = hash128(&bytes);
    format!("{hi:016x}{lo:016x}")
}

/// QSearch on the 3-qubit TFIM timestep 3 with the paper pipeline's TFIM
/// search settings.
pub fn tfim_step() -> SynthesisOutput {
    let params = TfimParams::paper_defaults(3);
    let target = tfim_circuit(&params, 3).unitary();
    let cfg = QSearchConfig {
        max_cnots: 6,
        max_nodes: 150,
        beam_width: 4,
        instantiate: InstantiateConfig {
            starts: 2,
            seed: 201,
            ..Default::default()
        },
        ..Default::default()
    };
    qsearch(&target, &Topology::linear(3), &cfg)
}

fn toffoli_target() -> Matrix {
    mct_unitary(4)
}

/// QFast on the 4-qubit Toffoli, two blocks deep (the pipeline's QFast
/// settings with `max_blocks` cut from 4 to 2 to keep the case short).
pub fn toffoli_qfast() -> SynthesisOutput {
    let cfg = QFastConfig {
        max_blocks: 2,
        seed: 201 ^ 0x51F7,
        ..Default::default()
    };
    qfast(&toffoli_target(), &Topology::linear(4), &cfg)
}

/// QSearch on the 4-qubit Toffoli with the paper pipeline's Toffoli search
/// settings.
pub fn toffoli_qsearch() -> SynthesisOutput {
    let cfg = QSearchConfig {
        max_cnots: 6,
        max_nodes: 60,
        beam_width: 2,
        instantiate: InstantiateConfig {
            starts: 1,
            seed: 201,
            lbfgs: LbfgsParams {
                max_iters: 300,
                ..Default::default()
            },
            ..Default::default()
        },
        ..Default::default()
    };
    qsearch(&toffoli_target(), &Topology::linear(4), &cfg)
}
