//! The arrayed waveguide grating router (AWGR) wavelength shuffle.
//!
//! An N x N AWGR is a passive device that routes wavelength `w` entering
//! input port `i` to output port `(i + w) mod N`. Consequently every
//! input–output port pair is connected by **exactly one** wavelength, the
//! device realizes a full all-to-all with `O(N)` fibers (versus `N^2` copper
//! point-to-point wires), and no reconfiguration is ever needed — the
//! property the paper's case (A) fabric builds on.

/// A single N x N AWGR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Awgr {
    /// Port count (and wavelength count).
    pub ports: u32,
}

impl Awgr {
    /// Create an AWGR with `ports` ports.
    pub fn new(ports: u32) -> Self {
        assert!(ports > 0, "an AWGR needs at least one port");
        Awgr { ports }
    }

    /// The paper's cascaded-AWGR building block: 370 usable ports.
    pub fn paper_370() -> Self {
        Awgr::new(370)
    }

    /// Output port reached by wavelength `wavelength` entering `input` —
    /// the cyclic AWGR routing function.
    pub fn output_port(&self, input: u32, wavelength: u32) -> u32 {
        assert!(input < self.ports && wavelength < self.ports);
        (input + wavelength) % self.ports
    }

    /// The unique wavelength that connects `input` to `output`.
    pub fn wavelength_for(&self, input: u32, output: u32) -> u32 {
        assert!(input < self.ports && output < self.ports);
        (output + self.ports - input % self.ports) % self.ports
    }

    /// Number of wavelengths connecting an input/output pair (always 1 for
    /// in-range ports; provided for symmetry with multi-plane fabrics).
    pub fn wavelengths_between(&self, input: u32, output: u32) -> u32 {
        let _ = (input, output);
        1
    }

    /// Verify the all-to-all property for this AWGR: every input reaches
    /// every output on exactly one wavelength, and each wavelength from a
    /// given input lands on a distinct output (a permutation).
    pub fn verify_all_to_all(&self) -> bool {
        for input in 0..self.ports {
            let mut seen = vec![false; self.ports as usize];
            for w in 0..self.ports {
                let out = self.output_port(input, w);
                if seen[out as usize] {
                    return false;
                }
                seen[out as usize] = true;
            }
            if seen.iter().any(|&s| !s) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn routing_function_is_cyclic() {
        let a = Awgr::new(8);
        assert_eq!(a.output_port(0, 0), 0);
        assert_eq!(a.output_port(3, 2), 5);
        assert_eq!(a.output_port(7, 5), 4); // wraps
    }

    #[test]
    fn wavelength_for_inverts_output_port() {
        let a = Awgr::new(11);
        for i in 0..11 {
            for o in 0..11 {
                let w = a.wavelength_for(i, o);
                assert_eq!(a.output_port(i, w), o);
            }
        }
    }

    #[test]
    fn paper_awgr_is_all_to_all() {
        assert!(Awgr::paper_370().verify_all_to_all());
    }

    #[test]
    fn small_awgrs_are_all_to_all() {
        for n in [1u32, 2, 3, 8, 12, 37] {
            assert!(Awgr::new(n).verify_all_to_all(), "N={n}");
        }
    }

    #[test]
    fn exactly_one_wavelength_per_pair() {
        let a = Awgr::new(16);
        for i in 0..16 {
            for o in 0..16 {
                assert_eq!(a.wavelengths_between(i, o), 1);
                // Count wavelengths mapping i->o explicitly.
                let count = (0..16).filter(|&w| a.output_port(i, w) == o).count();
                assert_eq!(count, 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn zero_port_awgr_rejected() {
        Awgr::new(0);
    }

    proptest! {
        #[test]
        fn prop_output_in_range(ports in 1u32..512, input in 0u32..512, w in 0u32..512) {
            let a = Awgr::new(ports);
            let input = input % ports;
            let w = w % ports;
            prop_assert!(a.output_port(input, w) < ports);
        }

        #[test]
        fn prop_wavelength_for_is_inverse(ports in 1u32..256, input in 0u32..256, output in 0u32..256) {
            let a = Awgr::new(ports);
            let input = input % ports;
            let output = output % ports;
            let w = a.wavelength_for(input, output);
            prop_assert!(w < ports);
            prop_assert_eq!(a.output_port(input, w), output);
        }

        #[test]
        fn prop_fixed_input_is_permutation(ports in 1u32..128, input in 0u32..128) {
            let a = Awgr::new(ports);
            let input = input % ports;
            let mut outputs: Vec<u32> = (0..ports).map(|w| a.output_port(input, w)).collect();
            outputs.sort_unstable();
            outputs.dedup();
            prop_assert_eq!(outputs.len(), ports as usize);
        }
    }
}
