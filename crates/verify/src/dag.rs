//! The dataflow IR: a per-wire def-use DAG over one circuit.
//!
//! A [`CircuitDag`] is built once per circuit and then shared by every
//! dataflow pass (the QA3xx lints of [`crate::dataflow`]) and by the static
//! noise-budget estimator ([`crate::budget`]). Nodes are gates plus
//! measurements; edges are wire-adjacency (qubit def-use chains), so two
//! gates on disjoint qubits are never ordered against each other. On top of
//! the edge structure the DAG precomputes ASAP layers and offers weighted
//! longest-path (critical-path) queries — gate count, CNOT cost, or
//! calibration-derived wall-clock duration.
//!
//! Construction is `O(gates)` and validating: repeated or out-of-range
//! operands are rejected with a [`DagError`] rather than producing a DAG
//! with aliased wires, because every downstream pass assumes each node
//! touches each wire at most once.

use qaprox_circuit::{Instruction, RawMeasure};
use qaprox_device::Calibration;

/// One node of the dataflow graph.
#[derive(Debug, Clone, PartialEq)]
pub enum DagNode {
    /// A unitary gate; `index` is its position in the gate stream.
    Gate {
        /// Position in the instruction list the DAG was built from.
        index: usize,
        /// The placed gate.
        inst: Instruction,
    },
    /// A measurement; `index` is its position in the measure stream.
    Measure {
        /// Position in the measure list the DAG was built from.
        index: usize,
        /// Measured qubit.
        qubit: usize,
        /// Destination classical bit.
        clbit: usize,
    },
}

impl DagNode {
    /// The qubit wires this node touches.
    pub fn qubits(&self) -> &[usize] {
        match self {
            DagNode::Gate { inst, .. } => &inst.qubits,
            DagNode::Measure { qubit, .. } => std::slice::from_ref(qubit),
        }
    }

    /// The gate instruction, when this node is a gate.
    pub fn instruction(&self) -> Option<&Instruction> {
        match self {
            DagNode::Gate { inst, .. } => Some(inst),
            DagNode::Measure { .. } => None,
        }
    }
}

/// Why a program could not be lifted into a [`CircuitDag`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// A node lists the same qubit more than once (aliased wire).
    RepeatedQubit {
        /// Offending gate's position in the instruction list.
        index: usize,
        /// The repeated qubit.
        qubit: usize,
    },
    /// A node addresses a qubit outside the declared register.
    QubitOutOfRange {
        /// Offending node's position (gate index, or measure index for measures).
        index: usize,
        /// The out-of-range qubit.
        qubit: usize,
        /// Declared register width.
        num_qubits: usize,
    },
    /// A measurement targets a classical bit outside the declared register.
    ClbitOutOfRange {
        /// Offending measure's position in the measure list.
        index: usize,
        /// The out-of-range classical bit.
        clbit: usize,
        /// Declared classical register width.
        num_clbits: usize,
    },
    /// A gate carries no operands at all (no wire to attach it to).
    NoOperands {
        /// Offending gate's position in the instruction list.
        index: usize,
    },
}

impl std::fmt::Display for DagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DagError::RepeatedQubit { index, qubit } => {
                write!(f, "instruction {index} lists qubit {qubit} more than once")
            }
            DagError::QubitOutOfRange {
                index,
                qubit,
                num_qubits,
            } => write!(
                f,
                "node {index} addresses qubit {qubit} in a {num_qubits}-qubit register"
            ),
            DagError::ClbitOutOfRange {
                index,
                clbit,
                num_clbits,
            } => write!(
                f,
                "measure {index} writes clbit {clbit} in a {num_clbits}-bit register"
            ),
            DagError::NoOperands { index } => {
                write!(f, "instruction {index} has no operands")
            }
        }
    }
}

impl std::error::Error for DagError {}

/// A weighted critical path through the DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Total accumulated weight along the path.
    pub weight: f64,
    /// Node ids from an input node to an output node, in order.
    pub nodes: Vec<usize>,
}

/// The per-circuit dataflow graph. See the module docs.
#[derive(Debug, Clone)]
pub struct CircuitDag {
    num_qubits: usize,
    num_clbits: usize,
    nodes: Vec<DagNode>,
    preds: Vec<Vec<usize>>,
    succs: Vec<Vec<usize>>,
    layer: Vec<usize>,
    /// Node ids touching each qubit, in program order (the def-use chain).
    qubit_nodes: Vec<Vec<usize>>,
    /// Measure node ids writing each clbit, in program order.
    clbit_writes: Vec<Vec<usize>>,
}

impl CircuitDag {
    /// Builds the DAG for a validated [`qaprox_circuit::Circuit`] (no
    /// measurements; the IR is pure unitary evolution).
    pub fn from_circuit(circuit: &qaprox_circuit::Circuit) -> CircuitDag {
        CircuitDag::from_instructions(circuit.num_qubits(), circuit.instructions())
            .expect("Circuit guarantees in-range, distinct operands")
    }

    /// Builds the DAG for a raw instruction list without measurements.
    pub fn from_instructions(
        num_qubits: usize,
        instructions: &[Instruction],
    ) -> Result<CircuitDag, DagError> {
        CircuitDag::from_program(num_qubits, 0, instructions, &[])
    }

    /// Builds the DAG for a full program: gates plus the measurement stream
    /// a lenient QASM parse records ([`RawMeasure::after`] fixes each
    /// measurement's position in the merged order).
    pub fn from_program(
        num_qubits: usize,
        num_clbits: usize,
        instructions: &[Instruction],
        measures: &[RawMeasure],
    ) -> Result<CircuitDag, DagError> {
        // validate operands up front so wire attachment can't alias
        for (i, inst) in instructions.iter().enumerate() {
            if inst.qubits.is_empty() {
                return Err(DagError::NoOperands { index: i });
            }
            for (k, &q) in inst.qubits.iter().enumerate() {
                if q >= num_qubits {
                    return Err(DagError::QubitOutOfRange {
                        index: i,
                        qubit: q,
                        num_qubits,
                    });
                }
                if inst.qubits[..k].contains(&q) {
                    return Err(DagError::RepeatedQubit { index: i, qubit: q });
                }
            }
        }
        for (i, m) in measures.iter().enumerate() {
            if m.qubit >= num_qubits {
                return Err(DagError::QubitOutOfRange {
                    index: i,
                    qubit: m.qubit,
                    num_qubits,
                });
            }
            if m.clbit >= num_clbits {
                return Err(DagError::ClbitOutOfRange {
                    index: i,
                    clbit: m.clbit,
                    num_clbits,
                });
            }
        }

        // merged program order: a measure with `after == g` precedes gate g
        let mut nodes = Vec::with_capacity(instructions.len() + measures.len());
        let mut next_measure = 0usize;
        for (g, inst) in instructions.iter().enumerate() {
            while next_measure < measures.len() && measures[next_measure].after <= g {
                let m = &measures[next_measure];
                nodes.push(DagNode::Measure {
                    index: next_measure,
                    qubit: m.qubit,
                    clbit: m.clbit,
                });
                next_measure += 1;
            }
            nodes.push(DagNode::Gate {
                index: g,
                inst: inst.clone(),
            });
        }
        for (i, m) in measures.iter().enumerate().skip(next_measure) {
            nodes.push(DagNode::Measure {
                index: i,
                qubit: m.qubit,
                clbit: m.clbit,
            });
        }

        // wire attachment: connect each node to the previous node on each of
        // its qubits; layering is ASAP (1 + max over predecessors)
        let n = nodes.len();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut layer = vec![0usize; n];
        let mut qubit_nodes: Vec<Vec<usize>> = vec![Vec::new(); num_qubits];
        let mut clbit_writes: Vec<Vec<usize>> = vec![Vec::new(); num_clbits];
        let mut frontier: Vec<Option<usize>> = vec![None; num_qubits];
        for (id, node) in nodes.iter().enumerate() {
            let mut lvl = 0usize;
            for &q in node.qubits() {
                if let Some(p) = frontier[q] {
                    if !preds[id].contains(&p) {
                        preds[id].push(p);
                        succs[p].push(id);
                    }
                    lvl = lvl.max(layer[p] + 1);
                }
                frontier[q] = Some(id);
                qubit_nodes[q].push(id);
            }
            layer[id] = lvl;
            if let DagNode::Measure { clbit, .. } = node {
                clbit_writes[*clbit].push(id);
            }
        }

        Ok(CircuitDag {
            num_qubits,
            num_clbits,
            nodes,
            preds,
            succs,
            layer,
            qubit_nodes,
            clbit_writes,
        })
    }

    /// Declared qubit register width.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Declared classical register width.
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// Number of nodes (gates + measurements).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the DAG holds no nodes at all.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All nodes in merged program order (a valid topological order).
    pub fn nodes(&self) -> &[DagNode] {
        &self.nodes
    }

    /// Wire-predecessors of a node.
    pub fn preds(&self, id: usize) -> &[usize] {
        &self.preds[id]
    }

    /// Wire-successors of a node.
    pub fn succs(&self, id: usize) -> &[usize] {
        &self.succs[id]
    }

    /// ASAP layer of a node (0 = no predecessor on any wire).
    pub fn layer(&self, id: usize) -> usize {
        self.layer[id]
    }

    /// Number of ASAP layers (0 for an empty DAG). For a measurement-free
    /// DAG this equals [`qaprox_circuit::Circuit::depth`].
    pub fn depth(&self) -> usize {
        self.layer.iter().map(|&l| l + 1).max().unwrap_or(0)
    }

    /// The def-use chain of one qubit: node ids in program order.
    pub fn qubit_nodes(&self, qubit: usize) -> &[usize] {
        &self.qubit_nodes[qubit]
    }

    /// Measure node ids writing one classical bit, in program order.
    pub fn clbit_writes(&self, clbit: usize) -> &[usize] {
        &self.clbit_writes[clbit]
    }

    /// Qubits no node ever touches.
    pub fn dead_qubits(&self) -> Vec<usize> {
        (0..self.num_qubits)
            .filter(|&q| self.qubit_nodes[q].is_empty())
            .collect()
    }

    /// Declared classical bits no measurement ever writes.
    pub fn unread_clbits(&self) -> Vec<usize> {
        (0..self.num_clbits)
            .filter(|&c| self.clbit_writes[c].is_empty())
            .collect()
    }

    /// The last measurement node on each qubit, if any.
    pub fn final_measure(&self, qubit: usize) -> Option<usize> {
        self.qubit_nodes[qubit]
            .iter()
            .rev()
            .copied()
            .find(|&id| matches!(self.nodes[id], DagNode::Measure { .. }))
    }

    /// Gate nodes acting on `qubit` after its final measurement — dead
    /// operations whose effect can never be observed on that wire.
    pub fn gates_after_final_measure(&self, qubit: usize) -> Vec<usize> {
        let Some(m) = self.final_measure(qubit) else {
            return Vec::new();
        };
        self.qubit_nodes[qubit]
            .iter()
            .copied()
            .filter(|&id| id > m && matches!(self.nodes[id], DagNode::Gate { .. }))
            .collect()
    }

    /// Partitions the *active* qubits (those with at least one node) into
    /// entanglement components: two qubits share a component iff a chain of
    /// multi-qubit gates connects them. A result with more than one
    /// component means the circuit factorizes and each partition could be
    /// simulated (and error-budgeted) independently.
    pub fn entangled_components(&self) -> Vec<Vec<usize>> {
        let mut parent: Vec<usize> = (0..self.num_qubits).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for node in &self.nodes {
            let qs = node.qubits();
            for w in qs.windows(2) {
                let (a, b) = (find(&mut parent, w[0]), find(&mut parent, w[1]));
                if a != b {
                    parent[a] = b;
                }
            }
        }
        let mut groups: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for q in 0..self.num_qubits {
            if self.qubit_nodes[q].is_empty() {
                continue; // dead qubits are QA301's business, not a partition
            }
            let root = find(&mut parent, q);
            groups.entry(root).or_default().push(q);
        }
        groups.into_values().collect()
    }

    /// Longest path through the DAG under a per-node weight. Returns the
    /// accumulated weight and the node ids along the path. Zero-weight nodes
    /// are allowed; an empty DAG yields weight 0 and no nodes.
    pub fn critical_path(&self, weight: impl Fn(&DagNode) -> f64) -> CriticalPath {
        if self.nodes.is_empty() {
            return CriticalPath {
                weight: 0.0,
                nodes: Vec::new(),
            };
        }
        let n = self.nodes.len();
        let mut best = vec![0.0f64; n];
        let mut from: Vec<Option<usize>> = vec![None; n];
        for id in 0..n {
            let w = weight(&self.nodes[id]);
            let mut acc = 0.0;
            let mut arg = None;
            for &p in &self.preds[id] {
                if best[p] > acc {
                    acc = best[p];
                    arg = Some(p);
                }
            }
            best[id] = acc + w;
            from[id] = arg;
        }
        let mut end = 0usize;
        for id in 1..n {
            if best[id] > best[end] {
                end = id;
            }
        }
        let mut nodes = vec![end];
        while let Some(p) = from[*nodes.last().expect("nonempty")] {
            nodes.push(p);
        }
        nodes.reverse();
        CriticalPath {
            weight: best[end],
            nodes,
        }
    }

    /// CNOT-weighted critical path: each gate weighs its
    /// [`qaprox_circuit::Gate::cnot_cost`], measurements weigh 0. The weight
    /// is the minimum number of *serial* CNOTs any schedule must pay — the
    /// quantity the paper's noise analysis tracks.
    pub fn cnot_critical_path(&self) -> CriticalPath {
        self.critical_path(|node| match node {
            DagNode::Gate { inst, .. } => inst.gate.cnot_cost() as f64,
            DagNode::Measure { .. } => 0.0,
        })
    }

    /// Duration-weighted critical path in nanoseconds, using the
    /// calibration's per-gate durations ([`Calibration::gate_noise`], which
    /// includes the lenient fallback for uncoupled pairs). A 1q gate on a
    /// qubit the calibration does not cover weighs 0, as do measurements
    /// (the calibration carries no readout duration).
    pub fn duration_critical_path(&self, cal: &Calibration) -> CriticalPath {
        self.critical_path(|node| match node {
            DagNode::Gate { inst, .. } => match inst.qubits.as_slice() {
                [q] if *q >= cal.qubits.len() => 0.0,
                qubits @ ([_] | [_, _]) => cal.gate_noise(qubits).duration_ns,
                _ => 0.0,
            },
            DagNode::Measure { .. } => 0.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qaprox_circuit::{Circuit, Gate};

    #[test]
    fn wire_chains_and_layers_follow_program_order() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).rz(0.3, 2).cx(1, 2);
        let dag = CircuitDag::from_circuit(&c);
        assert_eq!(dag.len(), 4);
        assert_eq!(dag.qubit_nodes(0), &[0, 1]);
        assert_eq!(dag.qubit_nodes(1), &[1, 3]);
        assert_eq!(dag.qubit_nodes(2), &[2, 3]);
        assert_eq!(dag.layer(0), 0);
        assert_eq!(dag.layer(1), 1);
        assert_eq!(dag.layer(2), 0, "rz(2) has no wire predecessor");
        assert_eq!(dag.layer(3), 2);
        assert_eq!(dag.depth(), c.depth());
        assert_eq!(dag.preds(3), &[1, 2]);
        assert_eq!(dag.succs(0), &[1]);
    }

    #[test]
    fn depth_matches_circuit_depth_on_random_shapes() {
        let mut c = Circuit::new(4);
        c.h(0).h(3).cx(0, 1).cx(2, 3).cx(1, 2).rz(0.1, 0).cx(0, 1);
        assert_eq!(CircuitDag::from_circuit(&c).depth(), c.depth());
    }

    #[test]
    fn cnot_critical_path_counts_serial_cnots() {
        let mut c = Circuit::new(3);
        // two parallel CNOT chains of length 2 and a lone H
        c.cx(0, 1).cx(0, 1).h(2);
        let dag = CircuitDag::from_circuit(&c);
        let cp = dag.cnot_critical_path();
        assert_eq!(cp.weight, 2.0);
        assert_eq!(cp.nodes, vec![0, 1]);
        assert_eq!(dag.critical_path(|_| 1.0).weight, 2.0);
    }

    #[test]
    fn rejects_defective_operands() {
        let bad = vec![Instruction {
            gate: Gate::CX,
            qubits: vec![1, 1],
        }];
        assert_eq!(
            CircuitDag::from_instructions(2, &bad).err(),
            Some(DagError::RepeatedQubit { index: 0, qubit: 1 }),
        );
        let oob = vec![Instruction {
            gate: Gate::H,
            qubits: vec![5],
        }];
        assert!(matches!(
            CircuitDag::from_instructions(2, &oob),
            Err(DagError::QubitOutOfRange { qubit: 5, .. })
        ));
        let none = vec![Instruction {
            gate: Gate::H,
            qubits: vec![],
        }];
        assert!(matches!(
            CircuitDag::from_instructions(2, &none),
            Err(DagError::NoOperands { index: 0 })
        ));
    }

    #[test]
    fn measures_interleave_and_track_clbits() {
        let insts = vec![
            Instruction {
                gate: Gate::H,
                qubits: vec![0],
            },
            Instruction {
                gate: Gate::X,
                qubits: vec![0],
            },
        ];
        let measures = vec![RawMeasure {
            qubit: 0,
            clbit: 0,
            after: 1,
            line: 3,
        }];
        let dag = CircuitDag::from_program(1, 2, &insts, &measures).unwrap();
        // merged order: h, measure, x
        assert_eq!(dag.len(), 3);
        assert!(matches!(dag.nodes()[1], DagNode::Measure { .. }));
        assert_eq!(dag.final_measure(0), Some(1));
        assert_eq!(dag.gates_after_final_measure(0), vec![2]);
        assert_eq!(dag.clbit_writes(0), &[1]);
        assert_eq!(dag.unread_clbits(), vec![1]);
    }

    #[test]
    fn entangled_components_partition_active_qubits() {
        let mut c = Circuit::new(5);
        c.cx(0, 1).cx(3, 4).h(0);
        let dag = CircuitDag::from_circuit(&c);
        assert_eq!(dag.entangled_components(), vec![vec![0, 1], vec![3, 4]]);
        assert_eq!(dag.dead_qubits(), vec![2]);
    }
}
