#!/usr/bin/env bash
# Trajectory-backend smoke test: the engine's quick convergence and
# thread-invariance tests, a narrow end-to-end CLI run, and the wide path
# the backend exists for — a noisy 27-qubit TFIM on the Toronto heavy-hex
# (a density matrix at that width would need 4^27 entries; one trajectory
# shot is a single 2^27 statevector, ~2 GiB transient, minutes of CPU).
# The wide run uses --steps 3 so the job scores the reference and >= 2
# candidate truncations in one trajectory request (TrajectoryBatch: one
# work item per circuit and shot chunk).
# Used by CI (trajectory-smoke job); runnable locally after
# `cargo build --release -p qaprox-cli`.
set -euo pipefail

bin=${QAPROX_BIN:-target/release/qaprox}

echo "--- trajectory engine tests (quick): convergence vs density matrix,"
echo "--- thread-count invariance, fusion exactness, batch bit-identity"
QAPROX_QUICK=1 cargo test -p qaprox-sim trajectory::

echo "--- narrow end-to-end: 3q TFIM on ourense, trajectory backend"
"$bin" run --workload tfim --qubits 3 --steps 4 --device ourense \
    --backend trajectory --shots 256 --no-store

echo "--- same narrow run with QAPROX_SIMD=0 (forced-scalar kernels);"
echo "--- dispatch is bit-identical by contract, so this just pins the fallback"
QAPROX_SIMD=0 "$bin" run --workload tfim --qubits 3 --steps 4 --device ourense \
    --backend trajectory --shots 256 --no-store

echo "--- wide end-to-end: 27q TFIM on the Toronto heavy-hex, multi-candidate"
echo "--- (steps 3 => the shot-batched path engages across the truncations)"
out=$("$bin" run --workload tfim --qubits 27 --steps 3 --device toronto \
    --backend trajectory --shots 1 --no-store)
echo "$out"
grep -q "tvd_to_ideal" <<<"$out" || {
    echo "trajectory_smoke: 27q run produced no scored rows" >&2
    exit 1
}

echo "trajectory_smoke: OK"
