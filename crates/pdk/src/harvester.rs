//! Printed energy-harvester model.
//!
//! The paper's self-powering criterion is static: classifier power below
//! the ~2 mW a printed harvester sustains. This module adds the energy
//! view: a harvester charges a printed storage capacitor continuously,
//! and a classifier that draws *more* than the harvest rate can still run
//! **duty-cycled** — burst a decision from stored energy, then sleep while
//! the capacitor refills. That analysis answers what the static check
//! cannot: *how many decisions per second* an over-budget classifier
//! (e.g. Pendigits at 1% loss) actually gets.
//!
//! ```
//! use printed_pdk::harvester::Harvester;
//! use printed_pdk::{Delay, Power};
//!
//! let h = Harvester::printed_default();
//! // A 0.5 mW classifier runs continuously:
//! assert!(h.supports_continuous(Power::from_mw(0.5)));
//! // A 3 mW classifier does not, but still decides several times a second
//! // when each decision takes one 50 ms cycle:
//! let rate = h.max_decision_rate_hz(Power::from_mw(3.0), Delay::from_ms(50.0));
//! assert!(rate > 5.0 && rate < 20.0);
//! ```

use crate::units::{Delay, Power, Voltage};

/// A printed energy harvester with capacitor storage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Harvester {
    /// Sustained harvest power.
    pub harvest_power: Power,
    /// Fully-charged storage voltage.
    pub full_voltage: Voltage,
    /// Minimum voltage at which the load still operates.
    pub min_voltage: Voltage,
}

impl Harvester {
    /// The paper's reference point: a ~2 mW printed harvester whose
    /// printed storage capacitor swings 1.0 → 0.6 V.
    pub fn printed_default() -> Self {
        Self {
            harvest_power: Power::from_mw(2.0),
            full_voltage: Voltage::from_v(1.0),
            min_voltage: Voltage::from_v(0.6),
        }
    }

    /// True when the load can run continuously (static criterion — the
    /// paper's `< 2 mW` check).
    pub fn supports_continuous(&self, load: Power) -> bool {
        load < self.harvest_power
    }

    /// Energy one decision costs, in joules: load power over the decision
    /// latency.
    pub fn decision_energy_joules(&self, load: Power, decision_time: Delay) -> f64 {
        load.uw() * 1e-6 * decision_time.ms() * 1e-3
    }

    /// Maximum sustained decision rate in Hz.
    ///
    /// Continuous loads are limited only by the decision latency;
    /// over-budget loads are limited by energy balance: the harvester must
    /// refill each decision's energy before the next one.
    ///
    /// # Panics
    ///
    /// Panics if `decision_time` is not positive.
    pub fn max_decision_rate_hz(&self, load: Power, decision_time: Delay) -> f64 {
        assert!(decision_time.ms() > 0.0, "decision time must be positive");
        let latency_limited = 1000.0 / decision_time.ms();
        if self.supports_continuous(load) {
            return latency_limited;
        }
        let harvest_watts = self.harvest_power.uw() * 1e-6;
        let energy_limited = harvest_watts / self.decision_energy_joules(load, decision_time);
        energy_limited.min(latency_limited)
    }
}

impl Default for Harvester {
    fn default() -> Self {
        Self::printed_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_criterion_matches_budget() {
        let h = Harvester::printed_default();
        assert!(h.supports_continuous(Power::from_uw(1999.0)));
        assert!(!h.supports_continuous(Power::from_mw(2.0)));
    }

    #[test]
    fn continuous_loads_are_latency_limited() {
        let h = Harvester::printed_default();
        let rate = h.max_decision_rate_hz(Power::from_mw(0.5), Delay::from_ms(50.0));
        assert!((rate - 20.0).abs() < 1e-9, "20 Hz cycle budget");
    }

    #[test]
    fn over_budget_loads_duty_cycle() {
        let h = Harvester::printed_default();
        // 4 mW at 50 ms/decision: 0.2 mJ per decision, 2 mW harvest →
        // 10 decisions/s.
        let rate = h.max_decision_rate_hz(Power::from_mw(4.0), Delay::from_ms(50.0));
        assert!((rate - 10.0).abs() < 1e-6, "rate {rate}");
        // Heavier load → slower.
        let slower = h.max_decision_rate_hz(Power::from_mw(8.0), Delay::from_ms(50.0));
        assert!(slower < rate);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_decision_time() {
        Harvester::printed_default().max_decision_rate_hz(Power::from_mw(1.0), Delay::ZERO);
    }
}
