//! The full model's broadcast latencies, bound to the paper's
//! parameters.
//!
//! Figures 8a and 8b pair each simulated OC-Bcast and binomial latency
//! with the model's prediction for the same point; [`Predictor`] holds
//! the Table-1 parameters and the default [`FullModelCfg`] those
//! predictions use. The other model quantities a harness needs
//! ([`crate::P2p`], [`crate::ClosedQueue`],
//! [`crate::series::table2_rows`]) it calls directly.

use crate::bcast::{binomial_latency_full, oc_latency_full, FullModelCfg};
use crate::params::ModelParams;

/// Model predictions bound to one parameter set.
#[derive(Clone, Copy, Debug)]
pub struct Predictor {
    params: ModelParams,
    cfg: FullModelCfg,
}

impl Predictor {
    /// Predictions from the paper's Table-1 parameters — what every
    /// experiment compares the simulator against.
    pub fn paper() -> Predictor {
        Predictor { params: ModelParams::paper(), cfg: FullModelCfg::default() }
    }

    /// Full-model OC-Bcast latency (µs) at `p` cores, `lines` cache
    /// lines, tree degree `k`.
    pub fn oc_latency_us(&self, p: usize, lines: usize, k: usize) -> f64 {
        oc_latency_full(&self.params, &self.cfg, p, lines, k)
    }

    /// Full-model binomial-tree latency (µs).
    pub fn binomial_latency_us(&self, p: usize, lines: usize) -> f64 {
        binomial_latency_full(&self.params, &self.cfg, p, lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bcast_predictions_are_consistent_with_series() {
        let pr = Predictor::paper();
        assert!(pr.oc_latency_us(48, 96, 7) > pr.oc_latency_us(48, 1, 7));
        assert!(pr.binomial_latency_us(48, 1) > pr.oc_latency_us(48, 1, 7));
    }
}
