//! Bit-error-rate and forward-error-correction model (Section III-C3).
//!
//! Server-class memories require raw BERs below 1e-18 to keep failure-in-time
//! rates tolerable with SEC-DED protection. Photonic links do not natively
//! reach that, so the paper adopts the lightweight FEC proposed for CXL /
//! PCIe Gen6:
//!
//! * the code corrects any single burst of up to 16 bits per flit;
//! * double bursts are likely mis-corrected, so the flit failure probability
//!   falls *quadratically* with the flit error rate (a 1e-6 flit BER becomes
//!   ~1e-12);
//! * each flit additionally carries a strong CRC spanning 64 flits so that
//!   CRC escapes are below one part per billion of the residual errors;
//! * FEC escapes become link-level retransmissions, so the ASIC-to-ASIC
//!   connection sees close to zero errors;
//! * all of this costs 2–3 ns of latency and well under 0.1% of bandwidth.

use crate::units::Latency;

/// Configuration of the link FEC + CRC + retransmission pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FecConfig {
    /// Flit size in bits that the FEC protects.
    pub flit_bits: u32,
    /// Maximum correctable burst length in bits.
    pub correctable_burst_bits: u32,
    /// Number of flits covered by one CRC group.
    pub crc_group_flits: u32,
    /// Probability that a residual (mis-corrected) flit escapes the CRC.
    pub crc_escape_probability: f64,
    /// Encode + decode latency.
    pub latency_ns: f64,
    /// Fraction of raw bandwidth spent on FEC + CRC overhead bits.
    pub bandwidth_overhead: f64,
}

impl FecConfig {
    /// The lightweight CXL / PCIe-Gen6 style FEC the paper assumes.
    pub fn cxl_lightweight() -> Self {
        FecConfig {
            flit_bits: 256 * 8,
            correctable_burst_bits: 16,
            crc_group_flits: 64,
            // "flit FIT rate (CRC escapes) significantly less than 1e-9".
            crc_escape_probability: 1e-9,
            latency_ns: 2.5,
            // "<0.1% bandwidth loss".
            bandwidth_overhead: 0.0008,
        }
    }

    /// A "no FEC" configuration used by ablation studies: raw link BER passes
    /// straight through, no latency or bandwidth cost.
    pub fn disabled() -> Self {
        FecConfig {
            flit_bits: 256 * 8,
            correctable_burst_bits: 0,
            crc_group_flits: 1,
            crc_escape_probability: 1.0,
            latency_ns: 0.0,
            bandwidth_overhead: 0.0,
        }
    }

    /// FEC latency as a [`Latency`].
    pub fn latency(&self) -> Latency {
        Latency::from_ns(self.latency_ns)
    }

    /// Fraction of bandwidth lost to FEC/CRC bits.
    pub fn bandwidth_overhead(&self) -> f64 {
        self.bandwidth_overhead
    }
}

/// The error model of a photonic link protected by [`FecConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkErrorModel {
    /// Raw (pre-FEC) bit error rate of the optical channel.
    pub raw_ber: f64,
    /// FEC configuration.
    pub fec: FecConfig,
}

/// Outcome of the error analysis for a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FecOutcome {
    /// Probability an individual flit contains at least one error burst
    /// before correction.
    pub flit_error_probability: f64,
    /// Probability a flit still carries an error after FEC (requires at
    /// least two bursts; falls quadratically).
    pub post_fec_flit_error_probability: f64,
    /// Probability an erroneous flit escapes the CRC and silently corrupts
    /// data (this is what must stay below the memory FIT budget).
    pub silent_error_probability: f64,
    /// Probability a flit must be retransmitted (detected but uncorrectable).
    pub retransmission_probability: f64,
    /// Effective bit error rate seen by the memory protocol after FEC, CRC
    /// and retransmission.
    pub effective_ber: f64,
    /// Expected bandwidth lost to retransmissions (fraction).
    pub retransmission_bandwidth_overhead: f64,
}

impl LinkErrorModel {
    /// Create a new error model from a raw BER and a FEC configuration.
    pub fn new(raw_ber: f64, fec: FecConfig) -> Self {
        LinkErrorModel { raw_ber, fec }
    }

    /// The paper's nominal operating point: a raw channel BER of 1e-6 per
    /// flit (the example used in Section III-C3) protected by CXL FEC.
    pub fn paper_nominal() -> Self {
        LinkErrorModel::new(1e-6 / (256.0 * 8.0), FecConfig::cxl_lightweight())
    }

    /// Probability that a flit contains at least one error burst.
    ///
    /// With independent bit errors at rate `p` and `n` bits per flit this is
    /// `1 - (1-p)^n`; we use the numerically stable `-expm1(n * ln(1-p))`.
    pub fn flit_error_probability(&self) -> f64 {
        let n = self.fec.flit_bits as f64;
        let p = self.raw_ber;
        if p <= 0.0 {
            return 0.0;
        }
        if p >= 1.0 {
            return 1.0;
        }
        -(n * (1.0 - p).ln()).exp_m1()
    }

    /// Run the full analysis.
    pub fn analyze(&self) -> FecOutcome {
        let p_flit = self.flit_error_probability();
        if self.fec.correctable_burst_bits == 0 {
            // FEC disabled: every flit error is visible, none corrected.
            return FecOutcome {
                flit_error_probability: p_flit,
                post_fec_flit_error_probability: p_flit,
                silent_error_probability: p_flit * self.fec.crc_escape_probability,
                retransmission_probability: p_flit,
                effective_ber: self.raw_ber,
                retransmission_bandwidth_overhead: p_flit,
            };
        }

        // Single bursts are corrected; a residual error needs two independent
        // bursts in the same flit, so the probability falls quadratically
        // (e.g. 1e-6 -> 1e-12), exactly the paper's argument.
        let post_fec = p_flit * p_flit;
        // Mis-corrected double bursts are caught by the 64-flit CRC with very
        // high probability; the tiny remainder is the silent-error rate.
        let silent = post_fec * self.fec.crc_escape_probability;
        // Everything the CRC catches is retransmitted.
        let retransmit = post_fec * (1.0 - self.fec.crc_escape_probability);
        let effective_ber = silent / self.fec.flit_bits as f64;
        FecOutcome {
            flit_error_probability: p_flit,
            post_fec_flit_error_probability: post_fec,
            silent_error_probability: silent,
            retransmission_probability: retransmit,
            effective_ber,
            retransmission_bandwidth_overhead: retransmit,
        }
    }

    /// Does the protected link meet a target effective BER (e.g. the 1e-18
    /// requirement of server-class memory)?
    pub fn meets_ber_target(&self, target: f64) -> bool {
        self.analyze().effective_ber <= target
    }

    /// The memory-class BER requirement quoted by the paper.
    pub const MEMORY_BER_TARGET: f64 = 1e-18;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_error_probability_matches_small_p_approximation() {
        // For small p, P(flit error) ≈ n*p.
        let m = LinkErrorModel::new(1e-12, FecConfig::cxl_lightweight());
        let approx = 2048.0 * 1e-12;
        let exact = m.flit_error_probability();
        assert!((exact - approx).abs() / approx < 1e-3);
    }

    #[test]
    fn quadratic_reduction_of_flit_errors() {
        // Paper: "a flit BER of 1e-6 becomes 1e-12".
        let m = LinkErrorModel::paper_nominal();
        let out = m.analyze();
        assert!((out.flit_error_probability - 1e-6).abs() / 1e-6 < 0.01);
        assert!(out.post_fec_flit_error_probability < 2e-12);
        assert!(out.post_fec_flit_error_probability > 0.5e-12);
    }

    #[test]
    fn protected_link_meets_memory_ber_target() {
        let m = LinkErrorModel::paper_nominal();
        assert!(m.meets_ber_target(LinkErrorModel::MEMORY_BER_TARGET));
    }

    #[test]
    fn unprotected_link_fails_memory_ber_target() {
        let m = LinkErrorModel::new(1e-6 / 2048.0, FecConfig::disabled());
        assert!(!m.meets_ber_target(LinkErrorModel::MEMORY_BER_TARGET));
    }

    #[test]
    fn retransmission_overhead_is_negligible() {
        let m = LinkErrorModel::paper_nominal();
        let out = m.analyze();
        // Retransmissions are on the order of the post-FEC flit error rate:
        // utterly negligible bandwidth cost.
        assert!(out.retransmission_bandwidth_overhead < 1e-9);
    }

    #[test]
    fn fec_latency_in_2_to_3_ns_band() {
        let f = FecConfig::cxl_lightweight();
        assert!(f.latency().ns() >= 2.0 && f.latency().ns() <= 3.0);
    }

    #[test]
    fn fec_bandwidth_loss_below_point_1_percent() {
        let f = FecConfig::cxl_lightweight();
        assert!(f.bandwidth_overhead() < 0.001);
    }

    #[test]
    fn degenerate_raw_ber_bounds() {
        let zero = LinkErrorModel::new(0.0, FecConfig::cxl_lightweight());
        assert_eq!(zero.flit_error_probability(), 0.0);
        assert_eq!(zero.analyze().effective_ber, 0.0);
        let one = LinkErrorModel::new(1.0, FecConfig::cxl_lightweight());
        assert_eq!(one.flit_error_probability(), 1.0);
    }

    #[test]
    fn disabled_fec_has_no_latency_or_overhead() {
        let f = FecConfig::disabled();
        assert_eq!(f.latency().ns(), 0.0);
        assert_eq!(f.bandwidth_overhead(), 0.0);
    }

    #[test]
    fn silent_errors_much_rarer_than_retransmissions() {
        let out = LinkErrorModel::paper_nominal().analyze();
        assert!(out.silent_error_probability < out.retransmission_probability * 1e-6);
    }
}
