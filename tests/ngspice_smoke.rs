//! One deck of the ngspice-format corpus at the workspace root: the PTM
//! rectifier (a named PTM `.model` card under a pulsed drive) is parsed,
//! simulated, and every corpus signal lands inside its envelope around
//! the committed expected waveform.

use sfet_verify::ngspice::check_deck;

#[test]
fn ptm_rectifier_deck_stays_inside_its_envelopes() {
    let reports = check_deck("ptm_rectifier").expect("deck runs and its CSV loads");
    assert!(!reports.is_empty(), "the deck declares its signals");
    for signal in &reports {
        assert!(
            signal.report.pass(),
            "{} out of envelope: {:?}",
            signal.name,
            signal.report
        );
    }
}
