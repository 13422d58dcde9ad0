//! First-order transient analysis: RC settling of printed nodes.
//!
//! Printed interconnect and gate loads form large RC products (kΩ-to-MΩ
//! resistors into tens of pF), which is where the technology's
//! millisecond-scale delays come from. This module provides:
//!
//! * the analytic step response of a first-order RC node;
//! * a forward-Euler integrator for arbitrary drive waveforms, validated
//!   against the analytic solution in tests;
//! * settling-time queries used to sanity-check the PDK's delay constants
//!   (e.g. the flash comparator's ladder-tap source resistance into its
//!   input capacitance).
//!
//! ```
//! use printed_analog::transient::RcNode;
//!
//! // A ladder tap (≈10 kΩ Thevenin) driving a comparator input (50 pF):
//! let node = RcNode::new(10_000.0, 50e-12);
//! // Settles to 1% in ≈ 4.6 τ = 2.3 µs — the *analog* front-end is fast;
//! // the millisecond delays live in the transistor stages.
//! assert!(node.settling_time_s(0.01) < 5e-6);
//! ```

/// A first-order RC node: Thevenin source resistance into a load
/// capacitance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RcNode {
    /// Source (Thevenin) resistance in ohms.
    pub resistance_ohms: f64,
    /// Load capacitance in farads.
    pub capacitance_farads: f64,
}

impl RcNode {
    /// Creates an RC node.
    ///
    /// # Panics
    ///
    /// Panics unless both values are positive and finite.
    pub fn new(resistance_ohms: f64, capacitance_farads: f64) -> Self {
        assert!(
            resistance_ohms.is_finite() && resistance_ohms > 0.0,
            "resistance must be positive"
        );
        assert!(
            capacitance_farads.is_finite() && capacitance_farads > 0.0,
            "capacitance must be positive"
        );
        Self {
            resistance_ohms,
            capacitance_farads,
        }
    }

    /// The time constant `τ = RC`, in seconds.
    pub fn tau_s(&self) -> f64 {
        self.resistance_ohms * self.capacitance_farads
    }

    /// Analytic step response: node voltage at time `t` after the drive
    /// steps from `v0` to `v1` (node initially at `v0`).
    pub fn step_response(&self, v0: f64, v1: f64, t: f64) -> f64 {
        v1 + (v0 - v1) * (-t / self.tau_s()).exp()
    }

    /// Time to settle within `tolerance` (fraction of the step) of the
    /// final value: `−τ·ln(tolerance)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < tolerance < 1`.
    pub fn settling_time_s(&self, tolerance: f64) -> f64 {
        assert!(
            tolerance > 0.0 && tolerance < 1.0,
            "tolerance must be in (0, 1), got {tolerance}"
        );
        -self.tau_s() * tolerance.ln()
    }

    /// Forward-Euler integration of the node under an arbitrary drive
    /// waveform `drive(t)`, from `t = 0` to `t_end`, starting at `v_start`.
    /// Returns `(t, v)` samples including both endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0` or `t_end` is not positive/finite.
    pub fn simulate(
        &self,
        v_start: f64,
        t_end: f64,
        steps: usize,
        mut drive: impl FnMut(f64) -> f64,
    ) -> Vec<(f64, f64)> {
        assert!(steps > 0, "need at least one step");
        assert!(t_end.is_finite() && t_end > 0.0, "t_end must be positive");
        let dt = t_end / steps as f64;
        let tau = self.tau_s();
        let mut v = v_start;
        let mut out = Vec::with_capacity(steps + 1);
        out.push((0.0, v));
        for k in 0..steps {
            let t = k as f64 * dt;
            // dv/dt = (drive − v) / τ
            v += dt * (drive(t) - v) / tau;
            out.push((t + dt, v));
        }
        out
    }
}

/// Thevenin source resistance of ladder tap `tap` in an `n_segments`-string
/// of `unit_ohms` resistors (the two sides of the string in parallel) —
/// what a flash comparator's input actually sees.
pub fn ladder_tap_thevenin_ohms(tap: usize, n_segments: usize, unit_ohms: f64) -> f64 {
    assert!(
        tap >= 1 && tap < n_segments,
        "tap {tap} out of range 1..{n_segments}"
    );
    let below = tap as f64 * unit_ohms;
    let above = (n_segments - tap) as f64 * unit_ohms;
    below * above / (below + above)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tau_and_settling() {
        let node = RcNode::new(1e4, 1e-9);
        assert!((node.tau_s() - 1e-5).abs() < 1e-18);
        // 1% settling ≈ 4.605 τ.
        assert!((node.settling_time_s(0.01) / node.tau_s() - 4.605).abs() < 0.01);
    }

    #[test]
    fn step_response_endpoints() {
        let node = RcNode::new(1e3, 1e-6);
        assert!((node.step_response(0.0, 1.0, 0.0) - 0.0).abs() < 1e-12);
        assert!((node.step_response(0.0, 1.0, 100.0 * node.tau_s()) - 1.0).abs() < 1e-12);
        // One τ: 63.2%.
        assert!((node.step_response(0.0, 1.0, node.tau_s()) - 0.6321).abs() < 1e-3);
    }

    #[test]
    fn euler_matches_analytic_step() {
        let node = RcNode::new(5e3, 2e-9);
        let t_end = 5.0 * node.tau_s();
        let samples = node.simulate(0.0, t_end, 10_000, |_| 1.0);
        for &(t, v) in samples.iter().skip(1) {
            let exact = node.step_response(0.0, 1.0, t);
            assert!((v - exact).abs() < 2e-3, "t={t}: {v} vs {exact}");
        }
    }

    #[test]
    fn euler_tracks_a_ramp_drive() {
        // For a slow ramp (τ ≪ ramp time), the node tracks the drive with
        // lag ≈ τ·slope.
        let node = RcNode::new(1e3, 1e-9); // τ = 1 µs
        let ramp_time = 1e-3; // 1000 τ
        let samples = node.simulate(0.0, ramp_time, 20_000, |t| t / ramp_time);
        let (t_last, v_last) = *samples.last().expect("non-empty");
        let expected_lag = node.tau_s() / ramp_time; // in volts
        assert!((t_last - ramp_time).abs() < 1e-12);
        assert!(
            ((1.0 - v_last) - expected_lag).abs() < 1e-4,
            "lag {} vs {}",
            1.0 - v_last,
            expected_lag
        );
    }

    #[test]
    fn ladder_thevenin_peaks_mid_string() {
        let unit = 2500.0;
        let mid = ladder_tap_thevenin_ohms(8, 16, unit);
        let edge = ladder_tap_thevenin_ohms(1, 16, unit);
        assert!(mid > edge);
        // Mid-string: 8u ∥ 8u = 4u.
        assert!((mid - 4.0 * unit).abs() < 1e-9);
        // Edge: 1u ∥ 15u = 15/16 u.
        assert!((edge - unit * 15.0 / 16.0).abs() < 1e-9);
    }

    #[test]
    fn analog_settling_is_negligible_at_20hz() {
        // Worst-case tap (mid-string) into a comparator input: settles in
        // microseconds — confirming the PDK's millisecond comparator delay
        // is transistor-stage-limited, not ladder-limited.
        let thevenin = ladder_tap_thevenin_ohms(8, 16, 2500.0);
        let node = RcNode::new(thevenin, 50e-12);
        assert!(node.settling_time_s(0.001) < 1e-5);
    }

    #[test]
    #[should_panic(expected = "tolerance")]
    fn settling_rejects_bad_tolerance() {
        RcNode::new(1.0, 1.0).settling_time_s(1.5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_r() {
        RcNode::new(0.0, 1e-9);
    }
}
