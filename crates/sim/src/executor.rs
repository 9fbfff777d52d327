//! Batch execution.
//!
//! Every figure in the paper runs *hundreds* of approximate circuits (often
//! x21 timesteps x several noise levels). Individual density matrices are
//! tiny, so the parallelism lives here: a parallel map over circuits.

use crate::hardware::HardwareBackend;
use crate::noise_model::NoiseModel;
use crate::statevector;
use crate::trajectory::{BatchRun, HealthReport, TrajectoryBackend};
use qaprox_circuit::Circuit;
use qaprox_linalg::parallel::par_map_indexed;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Where a circuit executes — mirrors the paper's three execution methods
/// (ideal simulator, device-noise-model simulator, physical machine), plus
/// the trajectory simulator that reaches widths the density matrix cannot.
#[derive(Debug, Clone)]
pub enum Backend {
    /// Noise-free statevector simulation.
    Ideal,
    /// Density-matrix simulation under a device noise model.
    Noisy(NoiseModel),
    /// Emulated physical hardware (noise model + unreported effects + shots).
    Hardware(HardwareBackend),
    /// Monte-Carlo trajectory simulation under a device noise model:
    /// `2^n` per shot instead of `4^n`, seeded per job.
    Trajectory(TrajectoryBackend),
}

impl Backend {
    /// Statically validates a circuit before execution: any deny-level
    /// finding from `qaprox-verify`'s circuit lints (out-of-range operands,
    /// duplicate operands, wrong arity, non-finite parameters, non-unitary
    /// embedded gates) is returned as an error with the rendered report.
    ///
    /// With the `strict-invariants` feature enabled, every execution entry
    /// point asserts this automatically.
    pub fn validate(circuit: &Circuit) -> Result<(), String> {
        let cfg = qaprox_verify::LintConfig::new();
        let report = qaprox_verify::lint_circuit(circuit, None, &cfg);
        if report.has_errors() {
            Err(format!(
                "circuit failed pre-run validation:\n{}",
                report.to_text()
            ))
        } else {
            Ok(())
        }
    }

    /// Output distribution of one circuit. `job_seed` matters only for the
    /// hardware backend's shot sampling.
    pub fn probabilities(&self, circuit: &Circuit, job_seed: u64) -> Vec<f64> {
        #[cfg(feature = "strict-invariants")]
        if let Err(e) = Backend::validate(circuit) {
            panic!("{e}");
        }
        match self {
            Backend::Ideal => statevector::probabilities(circuit),
            Backend::Noisy(model) => model.probabilities(circuit),
            Backend::Hardware(hw) => hw.probabilities(circuit, job_seed),
            Backend::Trajectory(tb) => tb.probabilities(circuit, job_seed),
        }
    }

    /// Executes a batch of circuits in parallel; result order matches input.
    pub fn run_batch(&self, circuits: &[Circuit]) -> Vec<Vec<f64>> {
        par_map_indexed(circuits, |i, c| self.probabilities(c, i as u64))
    }

    /// Runs `circuits` as one request; row `i` uses job seed
    /// `job_seeds[i]`, and results keep input order exactly. A seed-count
    /// mismatch is an error.
    ///
    /// Every circuit is statically validated first: a deny-lint circuit
    /// turns the whole batch into an error naming the offending index, so a
    /// bad member never costs the batch's compute. A circuit that *panics*
    /// during simulation (an engine bug, not an input bug) is likewise
    /// reported by index rather than poisoning the worker pool.
    ///
    /// Trajectory rows carry real shot-level health accounting (aborted
    /// corrupt shots, cooperative cancellation); exact backends never abort
    /// shots and report a default (healthy, zero-shot) record per row.
    pub fn execute(&self, circuits: &[Circuit], job_seeds: &[u64]) -> Result<BatchRun, String> {
        if circuits.len() != job_seeds.len() {
            return Err(format!(
                "execute got {} circuits but {} job seeds",
                circuits.len(),
                job_seeds.len()
            ));
        }
        // Failpoint `hardware.shot`: the emulated analogue of a physical
        // backend rejecting or dropping a submitted job. `error` fails the
        // whole batch with a transient (retryable) message, `panic` emulates
        // the executing worker crashing mid-job.
        qaprox_fault::fail_point!("hardware.shot", |_action| {
            Err(qaprox_fault::injected_error("hardware.shot"))
        });
        for (i, c) in circuits.iter().enumerate() {
            Backend::validate(c).map_err(|e| format!("circuit {i} of {}: {e}", circuits.len()))?;
        }
        // Trajectory: score the whole batch in one request, whose
        // (candidate, chunk) work items share the cores, bit-identical to
        // the per-candidate loop below. Mixed widths, an injected
        // `traj.batch` fault, or a mid-batch panic fall through to
        // per-candidate requests rather than failing the job.
        if let Backend::Trajectory(tb) = self {
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                qaprox_fault::fail_point!("traj.batch", |_action| {
                    Err(qaprox_fault::injected_error("traj.batch"))
                });
                let refs: Vec<&Circuit> = circuits.iter().collect();
                tb.execute(&refs, job_seeds)
            }));
            if let Ok(Ok(run)) = attempt {
                return Ok(run);
            }
        }
        let runs: Vec<std::thread::Result<Result<BatchRun, String>>> =
            par_map_indexed(circuits, |i, c| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match self {
                    Backend::Trajectory(tb) => tb.execute(&[c], &[job_seeds[i]]),
                    other => Ok(BatchRun {
                        rows: vec![other.probabilities(c, job_seeds[i])],
                        health: vec![HealthReport::default()],
                    }),
                }))
            });
        let mut out = BatchRun::default();
        for (i, r) in runs.into_iter().enumerate() {
            let run = r.map_err(|payload| {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic payload");
                format!("circuit {i} panicked during simulation: {msg}")
            })??;
            out.rows.extend(run.rows);
            out.health.extend(run.health);
        }
        Ok(out)
    }

    /// [`Backend::execute`]'s rows and health reports, row `i` seeded `i`
    /// as in [`Backend::run_batch`].
    pub fn probabilities_batch_health(
        &self,
        circuits: &[Circuit],
    ) -> Result<(Vec<Vec<f64>>, Vec<HealthReport>), String> {
        let seeds: Vec<u64> = (0..circuits.len() as u64).collect();
        let run = self.execute(circuits, &seeds)?;
        Ok((run.rows, run.health))
    }

    /// Attaches a cooperative cancellation token to backends that support
    /// mid-job cancellation — the trajectory backend checks it at shot
    /// granularity; exact backends ignore it (their per-circuit runs are
    /// short enough to cancel between circuits at the scheduler layer).
    pub fn with_cancel(self, flag: Arc<AtomicBool>) -> Self {
        match self {
            Backend::Trajectory(tb) => Backend::Trajectory(tb.with_cancel(flag)),
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qaprox_device::devices::ourense;

    fn some_circuits(n: usize) -> Vec<Circuit> {
        (0..n)
            .map(|i| {
                let mut c = Circuit::new(3);
                c.h(0).cx(0, 1).rz(0.1 * i as f64, 1).cx(1, 2);
                c
            })
            .collect()
    }

    #[test]
    fn batch_matches_individual_ideal() {
        let circuits = some_circuits(8);
        let backend = Backend::Ideal;
        let batch = backend.run_batch(&circuits);
        for (i, c) in circuits.iter().enumerate() {
            let solo = statevector::probabilities(c);
            for (a, b) in batch[i].iter().zip(&solo) {
                assert!((a - b).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn batch_matches_individual_noisy() {
        let cal = ourense().induced(&[0, 1, 2]);
        let model = NoiseModel::from_calibration(cal);
        let circuits = some_circuits(4);
        let backend = Backend::Noisy(model.clone());
        let batch = backend.run_batch(&circuits);
        for (i, c) in circuits.iter().enumerate() {
            let solo = model.probabilities(c);
            for (a, b) in batch[i].iter().zip(&solo) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn hardware_batch_is_reproducible() {
        let cal = ourense().induced(&[0, 1, 2]);
        let hw = HardwareBackend::new(NoiseModel::from_calibration(cal));
        let backend = Backend::Hardware(hw);
        let circuits = some_circuits(3);
        let a = backend.run_batch(&circuits);
        let b = backend.run_batch(&circuits);
        assert_eq!(a, b, "per-index job seeds make batches deterministic");
    }

    #[test]
    fn ideal_backend_ignores_job_seed() {
        let c = some_circuits(1).pop().unwrap();
        let b = Backend::Ideal;
        assert_eq!(b.probabilities(&c, 0), b.probabilities(&c, 999));
    }

    #[test]
    fn hardware_backend_depends_on_job_seed() {
        let cal = ourense().induced(&[0, 1, 2]);
        let hw = HardwareBackend::new(NoiseModel::from_calibration(cal));
        let b = Backend::Hardware(hw);
        let c = some_circuits(1).pop().unwrap();
        assert_ne!(
            b.probabilities(&c, 0),
            b.probabilities(&c, 1),
            "shots must differ by seed"
        );
    }

    #[test]
    fn trajectory_backend_depends_on_job_seed() {
        let cal = ourense().induced(&[0, 1, 2]);
        let tb = TrajectoryBackend::with_shots(NoiseModel::from_calibration(cal), 32);
        let b = Backend::Trajectory(tb);
        let c = some_circuits(1).pop().unwrap();
        assert_eq!(b.probabilities(&c, 3), b.probabilities(&c, 3));
        assert_ne!(
            b.probabilities(&c, 0),
            b.probabilities(&c, 1),
            "trajectory streams must differ by job seed"
        );
    }

    #[test]
    fn trajectory_batch_matches_run_batch_seeding() {
        let cal = ourense().induced(&[0, 1, 2]);
        let tb = TrajectoryBackend::with_shots(NoiseModel::from_calibration(cal), 16);
        let backend = Backend::Trajectory(tb);
        let circuits = some_circuits(4);
        let run = backend.execute(&circuits, &[0, 1, 2, 3]).unwrap();
        assert_eq!(run.rows, backend.run_batch(&circuits));
        assert!(run.health.iter().all(HealthReport::is_healthy));
        // row i uses job seed job_seeds[i], whatever else shares the request
        let seeds = [40, 3, 0, 7];
        let run = backend.execute(&circuits, &seeds).unwrap();
        for (i, c) in circuits.iter().enumerate() {
            assert_eq!(run.rows[i], backend.probabilities(c, seeds[i]), "row {i}");
        }
        let err = backend.execute(&circuits, &[0, 1]).unwrap_err();
        assert!(err.contains("4 circuits but 2 job seeds"), "{err}");
    }

    #[test]
    fn empty_batch_is_empty() {
        let b = Backend::Ideal;
        assert!(b.run_batch(&[]).is_empty());
    }

    #[test]
    fn probabilities_batch_preserves_input_order() {
        let circuits = some_circuits(8);
        let backend = Backend::Ideal;
        let batch = backend.execute(&circuits, &[0; 8]).unwrap().rows;
        assert_eq!(batch.len(), circuits.len());
        for (i, c) in circuits.iter().enumerate() {
            let solo = statevector::probabilities(c);
            assert_eq!(batch[i].len(), solo.len());
            for (a, b) in batch[i].iter().zip(&solo) {
                assert!((a - b).abs() < 1e-14, "row {i} out of order");
            }
        }
        assert_eq!(backend.execute(&[], &[]).unwrap(), BatchRun::default());
    }

    #[test]
    fn probabilities_batch_names_the_offending_circuit() {
        let mut circuits = some_circuits(3);
        circuits[1].rz(f64::NAN, 0); // non-finite parameter is a deny lint
        let err = Backend::Ideal.execute(&circuits, &[0, 1, 2]).unwrap_err();
        assert!(err.contains("circuit 1 of 3"), "{err}");
        assert!(err.contains("validation"), "{err}");
        // the clean prefix/suffix did not mask the failure into a partial batch
        assert!(Backend::Ideal.execute(&circuits[..1], &[0]).is_ok());
    }

    #[test]
    fn probabilities_batch_matches_run_batch_seeding() {
        // hardware sampling is seeded by index, so both entry points agree
        let cal = ourense().induced(&[0, 1, 2]);
        let hw = HardwareBackend::new(NoiseModel::from_calibration(cal));
        let backend = Backend::Hardware(hw);
        let circuits = some_circuits(4);
        assert_eq!(
            backend.execute(&circuits, &[0, 1, 2, 3]).unwrap().rows,
            backend.run_batch(&circuits)
        );
    }
}
