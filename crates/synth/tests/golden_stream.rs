//! Golden intermediate streams for the two synthesis engines.
//!
//! Each case synthesizes a fixed target and pins a `hash128` digest of the
//! whole intermediate stream: every circuit's gates, qubits and parameter
//! bits, plus every `hs_distance` as raw bits (signed zeros included). The
//! digests were recorded before the instantiation and QFast objectives were
//! rewritten for speed; those rewrites are required to be bit-identical, so
//! any later change to synthesis arithmetic that moves a single bit of a
//! result fails here instead of silently shifting downstream rows.
//!
//! If a change is *meant* to alter synthesis results, re-record the digests
//! and say so in the change log.

use qaprox_algos::mct::mct_unitary;
use qaprox_algos::tfim::{tfim_circuit, TfimParams};
use qaprox_circuit::Gate;
use qaprox_device::Topology;
use qaprox_linalg::hashing::hash128;
use qaprox_synth::{
    qfast, qsearch, InstantiateConfig, QFastConfig, QSearchConfig, SynthesisOutput,
};

/// Serializes the intermediate stream bit-exactly and hashes it.
fn stream_digest(out: &SynthesisOutput) -> String {
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

/// QSearch on one 3-qubit TFIM timestep with the paper pipeline's TFIM
/// search settings.
#[test]
fn qsearch_tfim_step_stream_is_pinned() {
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
    let out = qsearch(&target, &Topology::linear(3), &cfg);
    assert_eq!(stream_digest(&out), "e87b37235bc2d128bdc3e6c517e7b41a");
}

/// QFast on the 4-qubit Toffoli, two blocks deep.
#[test]
fn qfast_toffoli_stream_is_pinned() {
    let target = mct_unitary(4);
    let cfg = QFastConfig {
        max_blocks: 2,
        seed: 201 ^ 0x51F7,
        ..Default::default()
    };
    let out = qfast(&target, &Topology::linear(4), &cfg);
    assert_eq!(stream_digest(&out), "4396a35e536f0c09e47cd3d2b7da4ff1");
}
