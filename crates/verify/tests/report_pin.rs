//! Golden digest for the JSON text of verify's lint and equivalence reports.
//!
//! `qaprox lint --format json` and `qaprox equiv --format json` print these
//! reports, and serve and the replay harness compare payloads byte for byte,
//! so their rendering may not move a byte. (`noise_pin.rs` pins
//! `AnalysisReport::to_json`.) This test hashes the exact text of:
//!
//! * `EquivReport::to_json` for every ordered same-width pair of the example
//!   QASM programs, at epsilon 0, 0.05 and 0.5, with relaxation on and off,
//!   on ourense and toronto induced to the pair's width;
//! * `Report::to_json` for `lint_program` over each example, without a
//!   device and against ourense's coupling map;
//! * a hand-built `Report` with every `Location` variant whose messages
//!   carry `"`, `\`, newline, carriage return, tab and U+0001, the
//!   characters a JSON string must escape.

use qaprox_circuit::{from_qasm, from_qasm_lenient, Circuit};
use qaprox_device::devices::{ourense, toronto};
use qaprox_linalg::hashing::Hash128;
use qaprox_verify::{
    check_equivalence, lint_program, Diagnostic, EquivOptions, LintConfig, Location, Report,
    Severity,
};

const REPORT_PIN_DIGEST: &str = "61f8e10b2251c086aa30bbee9f231779";

const EXAMPLES: [&str; 5] = [
    "commute_reorder_a.qasm",
    "commute_reorder_b.qasm",
    "grover_3q.qasm",
    "tfim_3q_4steps.qasm",
    "toffoli_4q.qasm",
];

fn qasm_text(name: &str) -> String {
    let path = format!("{}/../../examples/qasm/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn escaped_report() -> Report {
    let locations = [
        Location::Global,
        Location::Instruction(7),
        Location::Qubit(2),
        Location::Clbit(1),
        Location::Edge(0, 3),
        Location::Kraus(4),
        Location::Row(5),
    ];
    let diagnostics = locations
        .into_iter()
        .enumerate()
        .map(|(i, location)| Diagnostic {
            code: if i % 2 == 0 { "QA101" } else { "QA502" },
            severity: if i % 3 == 0 {
                Severity::Error
            } else {
                Severity::Warning
            },
            location,
            message: format!("say \"{i}\" \\ then\nnext\rline\tcol \u{01} end"),
        })
        .collect();
    Report::from_diagnostics(diagnostics)
}

fn digest() -> String {
    let mut h = Hash128::new();
    let circuits: Vec<Circuit> = EXAMPLES
        .iter()
        .map(|name| from_qasm(&qasm_text(name)).unwrap_or_else(|e| panic!("{name}: {e:?}")))
        .collect();
    for a in &circuits {
        for b in circuits.iter().filter(|b| b.num_qubits() == a.num_qubits()) {
            let width: Vec<usize> = (0..a.num_qubits()).collect();
            for cal in [ourense().induced(&width), toronto().induced(&width)] {
                for epsilon in [0.0, 0.05, 0.5] {
                    for include_relaxation in [true, false] {
                        let opts = EquivOptions {
                            epsilon,
                            include_relaxation,
                            ..EquivOptions::default()
                        };
                        let r = check_equivalence(a, b, &cal, &opts);
                        h.update(r.to_json().as_bytes());
                    }
                }
            }
        }
    }
    let topology = ourense().topology;
    for name in EXAMPLES {
        let raw = from_qasm_lenient(&qasm_text(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        for topo in [None, Some(&topology)] {
            let r = lint_program(
                raw.num_qubits,
                raw.num_clbits,
                &raw.instructions,
                &raw.measures,
                topo,
                &LintConfig::new(),
            );
            h.update(r.to_json().as_bytes());
        }
    }
    h.update(escaped_report().to_json().as_bytes());
    h.finish_hex()
}

#[test]
fn report_json_keeps_its_bytes() {
    assert_eq!(digest(), REPORT_PIN_DIGEST);
}
