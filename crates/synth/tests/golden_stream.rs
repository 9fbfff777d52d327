//! Golden intermediate streams for the two synthesis engines.
//!
//! Each case synthesizes a fixed target and pins a `hash128` digest of the
//! whole intermediate stream (see `common::stream_digest`). The digests were
//! recorded before the instantiation and QFast objectives were rewritten for
//! speed; those rewrites are required to be bit-identical, so any later
//! change to synthesis arithmetic that moves a single bit of a result fails
//! here instead of silently shifting downstream rows.
//!
//! If a change is *meant* to alter synthesis results, re-record the digests
//! in `common/mod.rs` and say so in the change log.

mod common;

use common::{stream_digest, tfim_step, toffoli_qfast, TFIM_STEP_DIGEST, TOFFOLI_QFAST_DIGEST};

/// QSearch on one 3-qubit TFIM timestep with the paper pipeline's TFIM
/// search settings.
#[test]
fn qsearch_tfim_step_stream_is_pinned() {
    assert_eq!(stream_digest(&tfim_step()), TFIM_STEP_DIGEST);
}

/// QFast on the 4-qubit Toffoli, two blocks deep.
#[test]
fn qfast_toffoli_stream_is_pinned() {
    assert_eq!(stream_digest(&toffoli_qfast()), TOFFOLI_QFAST_DIGEST);
}
