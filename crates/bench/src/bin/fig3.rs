//! Reproduces **Fig. 3**: area and power of (4-bit) bespoke ADCs with
//! respect to the number and position of their output unary digits.
//!
//! As in the paper, the digit count sweeps 1..=15; for each count the
//! retained taps slide across the 4-bit scale in sequential windows
//! ("U1–U2" is followed by "U2–U3" and so on) to expose the position
//! dependence of power. The conventional 4-bit ADC is printed as the
//! reference line.
//!
//! Run with `cargo run --release -p printed-bench --bin fig3`.

use printed_adc::{BespokeAdcBank, ConventionalAdc};
use printed_bench::{experiment_args, hrule, outln, TraceHook};
use printed_pdk::AnalogModel;

fn bespoke_cost(taps: &[usize], model: &AnalogModel) -> (f64, f64) {
    let mut bank = BespokeAdcBank::new(4);
    for &t in taps {
        bank.require(0, t).expect("taps 1..=15");
    }
    let c = bank.cost(model);
    (c.area.mm2(), c.power.uw())
}

fn main() {
    experiment_args("fig3", false);
    let hook = TraceHook::from_env("fig3");
    let model = AnalogModel::egfet();
    let conventional = ConventionalAdc::new(4).standalone_cost(&model);

    outln!("Fig. 3 — Bespoke (4-bit) ADC area/power vs output unary digits");
    outln!(
        "Reference conventional 4-bit flash ADC: {:.2} / {:.0}  (paper: 11 mm², 830 µW — \
         power deviation documented in printed-pdk::calibration)\n",
        conventional.area,
        conventional.power
    );
    outln!(
        "{:<6} | {:>9} | {:>11} | {:>11} | {:>7} | window detail (sliding tap windows, µW)",
        "k-U_D",
        "area mm²",
        "min µW",
        "max µW",
        "ratio"
    );
    hrule(110);

    let stage = hook.recorder().span("stage:digit_sweep");
    for k in 1..=15usize {
        let span = hook.recorder().span("digit_count").field("k", k);
        // All sequential windows of k taps: [1..=k], [2..=k+1], …
        let windows: Vec<Vec<usize>> = (1..=(16 - k)).map(|lo| (lo..lo + k).collect()).collect();
        let costs: Vec<(f64, f64)> = windows.iter().map(|w| bespoke_cost(w, &model)).collect();
        let area = costs[0].0; // position-independent
        debug_assert!(costs.iter().all(|c| (c.0 - area).abs() < 1e-9));
        let min = costs.iter().map(|c| c.1).fold(f64::INFINITY, f64::min);
        let max = costs.iter().map(|c| c.1).fold(f64::NEG_INFINITY, f64::max);
        let detail: Vec<String> = costs.iter().map(|c| format!("{:.0}", c.1)).collect();
        outln!(
            "{:<6} | {:>9.2} | {:>11.1} | {:>11.1} | {:>6.2}x | {}",
            format!("{k}-U_D"),
            area,
            min,
            max,
            max / min,
            detail.join(" ")
        );
        span.field("windows", windows.len())
            .field("max_uw", max)
            .finish();
    }
    stage.finish();
    hrule(110);

    // The paper's headline anchors for this figure.
    let (_, p_low) = bespoke_cost(&[1, 2, 3, 4], &model);
    let (_, p_high) = bespoke_cost(&[12, 13, 14, 15], &model);
    outln!(
        "\n4-U_D span: {:.0} µW (taps 1–4) … {:.0} µW (taps 12–15), ratio {:.1}x \
         (paper: 47 µW … 205 µW, 4.4x)",
        p_low - model.full_ladder_power.uw(),
        p_high - model.full_ladder_power.uw(),
        (p_high - model.full_ladder_power.uw()) / (p_low - model.full_ladder_power.uw())
    );
    outln!(
        "Area is linear in the retained-comparator count and independent of tap position;\n\
         power grows with tap order because higher reference voltages draw more static\n\
         current in the comparator input stages."
    );
    hook.finish_or_exit();
}
