//! Parameter-sweep regression: every noise-channel constructor in
//! `qaprox_device::channels` must yield a trace-preserving (CPTP) Kraus set
//! across its whole legal parameter range, as judged by the channel lints.

use qaprox_device::channels::{
    amplitude_damping, bit_flip, depolarizing_1q, depolarizing_2q, phase_damping, phase_flip,
    thermal_relaxation,
};
use qaprox_verify::{kraus_completeness_defect, lint_kraus_set, LintConfig};

fn assert_cptp(label: &str, kraus: &[qaprox_linalg::Matrix]) {
    let report = lint_kraus_set(label, kraus, &LintConfig::new());
    assert!(
        !report.has_errors(),
        "{label}: completeness defect {:.2e}\n{}",
        kraus_completeness_defect(kraus),
        report.to_text()
    );
}

#[test]
fn probability_channels_are_cptp_across_the_range() {
    for i in 0..=20 {
        let p = i as f64 / 20.0;
        assert_cptp(&format!("bit_flip({p})"), &bit_flip(p));
        assert_cptp(&format!("phase_flip({p})"), &phase_flip(p));
        assert_cptp(&format!("depolarizing_1q({p})"), &depolarizing_1q(p));
        assert_cptp(&format!("depolarizing_2q({p})"), &depolarizing_2q(p));
        assert_cptp(&format!("amplitude_damping({p})"), &amplitude_damping(p));
        assert_cptp(&format!("phase_damping({p})"), &phase_damping(p));
    }
}

#[test]
fn thermal_relaxation_is_cptp_across_times_and_coherences() {
    // gate times from instantaneous to very long, and T2 <= 2*T1 physical combos
    for &t_ns in &[0.0, 35.0, 300.0, 5_000.0, 100_000.0] {
        for &(t1, t2) in &[(80.0, 70.0), (50.0, 100.0), (120.0, 30.0), (20.0, 20.0)] {
            assert_cptp(
                &format!("thermal_relaxation({t_ns}, {t1}, {t2})"),
                &thermal_relaxation(t_ns, t1, t2),
            );
        }
    }
}

#[test]
fn completeness_defect_is_zero_only_for_complete_sets() {
    let full = bit_flip(0.3);
    assert!(kraus_completeness_defect(&full) < 1e-12);
    // dropping one operator must register as a defect
    let partial = &full[..1];
    assert!(kraus_completeness_defect(partial) > 0.01);
}
