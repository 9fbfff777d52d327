//! The per-gate noise rule, read from a calibration.
//!
//! Every approximation is scored under a device noise model built the
//! Qiskit-Aer way (`NoiseModel.from_backend`): each gate is followed by a
//! depolarizing channel sized from its reported error, then by thermal
//! relaxation of each operand over the gate's duration from its T1/T2
//! ([`crate::channels::thermal_relaxation`]). [`Calibration::gate_noise`]
//! is the one statement of that rule:
//!
//! * a one-qubit gate on `q` has error `sx_error`, depolarizing strength
//!   `lambda = clamp(sx_error * 2)` (`err * d / (d - 1)` with `d = 2`) and
//!   duration `sx_time_ns`;
//! * a two-qubit gate on `(a, b)` has the edge's `cx_error`, strength
//!   `lambda = clamp(cx_error * 4 / 3)` (`d = 4`) and duration
//!   `cx_time_ns`. A pair the topology does not couple falls back to the
//!   device's mean CNOT error and [`UNCOUPLED_CX_TIME_NS`], which lets
//!   logical circuits run before routing.
//!
//! The density-matrix simulator and the trajectory compiler apply these
//! channels; the static fidelity bound, the equivalence checker's noise
//! terms and the commutation charges price them.

use crate::calibration::{Calibration, EdgeCal};

/// Duration assumed for a CNOT on a pair the topology does not couple.
pub const UNCOUPLED_CX_TIME_NS: f64 = 400.0;

/// The noise that follows one gate: see the module docs for the rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateNoise {
    /// The reported gate error (`sx_error` or `cx_error`), unclamped.
    pub error: f64,
    /// Depolarizing strength on the gate's support, in `[0, 1]`.
    pub lambda: f64,
    /// Duration over which each operand relaxes, nanoseconds.
    pub duration_ns: f64,
}

impl Calibration {
    /// The noise following a gate on `qubits` (one or two of them).
    ///
    /// # Panics
    /// On any other operand count, or a one-qubit gate on a qubit the
    /// calibration does not cover.
    pub fn gate_noise(&self, qubits: &[usize]) -> GateNoise {
        match *qubits {
            [q] => {
                let qc = &self.qubits[q];
                GateNoise {
                    error: qc.sx_error,
                    lambda: (qc.sx_error * 2.0).clamp(0.0, 1.0),
                    duration_ns: qc.sx_time_ns,
                }
            }
            [a, b] => {
                let edge = self.edge(a, b).copied().unwrap_or(EdgeCal {
                    cx_error: self.avg_cx_error(),
                    cx_time_ns: UNCOUPLED_CX_TIME_NS,
                });
                GateNoise {
                    error: edge.cx_error,
                    lambda: (edge.cx_error * 4.0 / 3.0).clamp(0.0, 1.0),
                    duration_ns: edge.cx_time_ns,
                }
            }
            _ => panic!("gate noise is defined for 1- and 2-qubit gates"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::ourense;

    #[test]
    fn coupled_and_uncoupled_pairs() {
        let cal = ourense();
        let edge = *cal.edge(0, 1).unwrap();
        let n = cal.gate_noise(&[1, 0]);
        assert_eq!(n.error, edge.cx_error);
        assert_eq!(n.lambda, (edge.cx_error * 4.0 / 3.0).clamp(0.0, 1.0));
        assert_eq!(n.duration_ns, edge.cx_time_ns);
        assert!(cal.edge(0, 4).is_none());
        let u = cal.gate_noise(&[0, 4]);
        assert_eq!(u.error, cal.avg_cx_error());
        assert_eq!(u.duration_ns, UNCOUPLED_CX_TIME_NS);
    }

    #[test]
    fn one_qubit_strength_clamps() {
        let mut cal = ourense();
        cal.qubits[2].sx_error = 0.7;
        let n = cal.gate_noise(&[2]);
        assert_eq!((n.error, n.lambda), (0.7, 1.0));
        assert_eq!(n.duration_ns, cal.qubits[2].sx_time_ns);
    }
}
