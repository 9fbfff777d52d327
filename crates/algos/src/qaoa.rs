//! QAOA circuits for MaxCut — the workload of the paper's Related-Work
//! discussion (\[20\]: approximate QAOA circuits with fewer CNOTs outperform
//! deeper ones). Provides another CNOT-heavy circuit family for the
//! approximation pipeline.
//!
//! `p` alternating layers of the cost unitary `exp(-i gamma sum_{(i,j)} Z_i Z_j / 2)`
//! (one CNOT-RZ-CNOT sandwich per edge) and the mixer `exp(-i beta sum_i X_i)`.

use qaprox_circuit::Circuit;

/// An undirected MaxCut instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaxCutGraph {
    /// Number of vertices (qubits).
    pub num_vertices: usize,
    /// Undirected edges.
    pub edges: Vec<(usize, usize)>,
}

impl MaxCutGraph {
    /// A cycle graph `0-1-...-(n-1)-0`.
    pub fn cycle(n: usize) -> Self {
        assert!(n >= 3, "cycle needs at least 3 vertices");
        let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        edges.push((n - 1, 0));
        MaxCutGraph {
            num_vertices: n,
            edges,
        }
    }

    /// A path graph `0-1-...-(n-1)`.
    pub fn path(n: usize) -> Self {
        assert!(n >= 2, "path needs at least 2 vertices");
        MaxCutGraph {
            num_vertices: n,
            edges: (0..n - 1).map(|i| (i, i + 1)).collect(),
        }
    }

    /// Cut value of an assignment (bit `i` of `assignment` = side of vertex `i`).
    pub fn cut_value(&self, assignment: usize) -> usize {
        self.edges
            .iter()
            .filter(|&&(a, b)| ((assignment >> a) ^ (assignment >> b)) & 1 == 1)
            .count()
    }

    /// The maximum cut value (exhaustive — instances here are small).
    pub fn max_cut(&self) -> usize {
        (0..(1usize << self.num_vertices))
            .map(|a| self.cut_value(a))
            .max()
            .unwrap_or(0)
    }

    /// Expected cut value of a measurement distribution.
    pub fn expected_cut(&self, probs: &[f64]) -> f64 {
        assert_eq!(
            probs.len(),
            1 << self.num_vertices,
            "distribution size mismatch"
        );
        probs
            .iter()
            .enumerate()
            .map(|(a, &p)| p * self.cut_value(a) as f64)
            .sum()
    }
}

/// Builds the depth-`p` QAOA circuit with per-layer angles
/// (`gammas.len() == betas.len() == p`).
pub fn qaoa_circuit(graph: &MaxCutGraph, gammas: &[f64], betas: &[f64]) -> Circuit {
    assert_eq!(
        gammas.len(),
        betas.len(),
        "need one (gamma, beta) pair per layer"
    );
    let n = graph.num_vertices;
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    for (&gamma, &beta) in gammas.iter().zip(betas) {
        for &(a, b) in &graph.edges {
            // exp(-i gamma Z_a Z_b / 2): CNOT - RZ(gamma) - CNOT
            c.cx(a, b);
            c.rz(gamma, b);
            c.cx(a, b);
        }
        for q in 0..n {
            c.rx(2.0 * beta, q);
        }
    }
    c
}

/// A coarse deterministic grid search for good `p = 1` angles, returning
/// `(gamma, beta, expected_cut)`. Good enough to produce a meaningful
/// reference circuit for approximation studies.
pub fn tune_p1(graph: &MaxCutGraph, grid: usize) -> (f64, f64, f64) {
    let mut best = (0.0, 0.0, -1.0);
    for gi in 1..grid {
        for bi in 1..grid {
            let gamma = std::f64::consts::PI * gi as f64 / grid as f64;
            let beta = std::f64::consts::FRAC_PI_2 * bi as f64 / grid as f64;
            let c = qaoa_circuit(graph, &[gamma], &[beta]);
            let probs: Vec<f64> = c.statevector().iter().map(|z| z.norm_sqr()).collect();
            let cut = graph.expected_cut(&probs);
            if cut > best.2 {
                best = (gamma, beta, cut);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cut_values_on_the_triangle() {
        let g = MaxCutGraph::cycle(3);
        assert_eq!(g.cut_value(0b000), 0);
        assert_eq!(g.cut_value(0b001), 2);
        assert_eq!(g.max_cut(), 2);
    }

    #[test]
    fn even_cycle_max_cut_is_edge_count() {
        let g = MaxCutGraph::cycle(4);
        assert_eq!(g.max_cut(), 4);
        assert_eq!(g.cut_value(0b0101), 4);
    }

    #[test]
    fn qaoa_circuit_structure() {
        let g = MaxCutGraph::cycle(4);
        let c = qaoa_circuit(&g, &[0.5, 0.3], &[0.2, 0.1]);
        // 2 layers x 4 edges x 2 CNOTs
        assert_eq!(c.cx_count(), 16);
        assert_eq!(c.num_qubits(), 4);
    }

    #[test]
    fn zero_angles_give_uniform_superposition() {
        let g = MaxCutGraph::path(3);
        let c = qaoa_circuit(&g, &[0.0], &[0.0]);
        let probs: Vec<f64> = c.statevector().iter().map(|z| z.norm_sqr()).collect();
        for &p in &probs {
            assert!((p - 0.125).abs() < 1e-12);
        }
        // uniform distribution's expected cut = half the edges
        assert!((g.expected_cut(&probs) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn tuned_p1_beats_random_guessing() {
        let g = MaxCutGraph::cycle(4);
        let (_, _, cut) = tune_p1(&g, 12);
        let uniform_cut = g.edges.len() as f64 / 2.0;
        assert!(
            cut > uniform_cut + 0.4,
            "tuned QAOA ({cut:.3}) should clearly beat uniform ({uniform_cut})"
        );
    }

    #[test]
    fn expected_cut_is_bounded_by_max_cut() {
        let g = MaxCutGraph::cycle(5);
        let (gamma, beta, cut) = tune_p1(&g, 10);
        assert!(cut <= g.max_cut() as f64 + 1e-9);
        let c = qaoa_circuit(&g, &[gamma], &[beta]);
        assert!(c.cx_count() == 2 * g.edges.len());
    }
}
