//! Flat row-major demand matrices.
//!
//! The quadratic per-pair state of the fabric simulators — offered demand,
//! granted capacity, wavelength occupancy — is conceptually an `N x N`
//! matrix over MCM pairs. This module provides the canonical dense
//! representation: one contiguous row-major `Vec<f64>` indexed as
//! `src * nodes + dst`, which the simulators index directly instead of
//! hashing `(u32, u32)` pair keys or chasing nested `Vec<Vec<..>>` rows.
//!
//! A [`DemandMatrix`] is a *pair-aggregated* view of a flow list: multiple
//! flows on the same ordered pair collapse into one summed entry. That is
//! exactly the granularity at which the timeline simulator's steering state
//! operates, but it is **not** equivalent input for
//! [`FlowSimulator::run`](crate::flowsim::FlowSimulator::run), whose
//! per-flow fractions and allocation order distinguish duplicate pairs —
//! which is why flow lists remain the simulators' canonical input and the
//! dense form is the canonical *state* representation.

use crate::flowsim::Flow;

/// A dense row-major demand matrix over `nodes x nodes` ordered MCM pairs,
/// in Gbps.
///
/// # Example
///
/// ```
/// use fabric::{DemandMatrix, Flow};
///
/// let flows = [Flow::new(0, 1, 100.0), Flow::new(0, 1, 50.0), Flow::new(2, 0, 25.0)];
/// let m = DemandMatrix::from_flows(4, &flows);
///
/// // Duplicate pairs aggregate; storage is flat row-major.
/// assert_eq!(m.get(0, 1), 150.0);
/// assert_eq!(m.as_slice()[m.index(2, 0)], 25.0);
/// assert_eq!(m.as_slice().len(), 16);
/// assert_eq!(m.total_gbps(), 175.0);
///
/// // Round-trip back to a (pair-aggregated, row-major-ordered) flow list.
/// let back = m.to_flows();
/// assert_eq!(back, vec![Flow::new(0, 1, 150.0), Flow::new(2, 0, 25.0)]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DemandMatrix {
    nodes: u32,
    /// Row-major demand: `demand[src * nodes + dst]` in Gbps.
    demand: Vec<f64>,
}

impl DemandMatrix {
    /// An all-zero matrix over `nodes` MCMs.
    pub fn zeros(nodes: u32) -> Self {
        DemandMatrix {
            nodes,
            demand: vec![0.0; (nodes as usize) * (nodes as usize)],
        }
    }

    /// Aggregate a flow list into a dense matrix: each flow's sanitized
    /// demand (per [`Flow::sanitized`]) adds onto its ordered pair's entry.
    /// Flows whose endpoints fall outside `nodes` are ignored.
    pub fn from_flows(nodes: u32, flows: &[Flow]) -> Self {
        let mut m = DemandMatrix::zeros(nodes);
        for f in flows {
            if f.src < nodes && f.dst < nodes {
                let i = m.index(f.src, f.dst);
                m.demand[i] += f.sanitized().demand_gbps;
            }
        }
        m
    }

    /// Number of MCMs (the matrix is `nodes x nodes`).
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// The flat row-major index of an ordered pair.
    #[inline]
    pub fn index(&self, src: u32, dst: u32) -> usize {
        src as usize * self.nodes as usize + dst as usize
    }

    /// Demand from `src` to `dst` in Gbps.
    #[inline]
    pub fn get(&self, src: u32, dst: u32) -> f64 {
        self.demand[self.index(src, dst)]
    }

    /// Set the demand of one ordered pair.
    pub fn set(&mut self, src: u32, dst: u32, gbps: f64) {
        let i = self.index(src, dst);
        self.demand[i] = gbps;
    }

    /// Add demand onto one ordered pair.
    pub fn add(&mut self, src: u32, dst: u32, gbps: f64) {
        let i = self.index(src, dst);
        self.demand[i] += gbps;
    }

    /// The raw flat row-major storage (length `nodes * nodes`).
    pub fn as_slice(&self) -> &[f64] {
        &self.demand
    }

    /// One source's outgoing demand row.
    pub fn row(&self, src: u32) -> &[f64] {
        let start = src as usize * self.nodes as usize;
        &self.demand[start..start + self.nodes as usize]
    }

    /// Total demand over all pairs in Gbps.
    pub fn total_gbps(&self) -> f64 {
        self.demand.iter().sum()
    }

    /// Expand the nonzero entries back into a flow list, in row-major
    /// order. Self-pairs on the diagonal are emitted like any other
    /// nonzero entry.
    pub fn to_flows(&self) -> Vec<Flow> {
        let mut flows = Vec::new();
        for src in 0..self.nodes {
            for dst in 0..self.nodes {
                let d = self.get(src, dst);
                if d > 0.0 {
                    flows.push(Flow::new(src, dst, d));
                }
            }
        }
        flows
    }

    /// Multiply every entry by `scale` in place.
    pub fn scale(&mut self, scale: f64) {
        for d in &mut self.demand {
            *d *= scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_accessors() {
        let mut m = DemandMatrix::zeros(3);
        assert_eq!(m.nodes(), 3);
        assert_eq!(m.as_slice(), &[0.0; 9]);
        m.set(1, 2, 40.0);
        m.add(1, 2, 10.0);
        assert_eq!(m.get(1, 2), 50.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 50.0]);
        assert_eq!(m.total_gbps(), 50.0);
        m.scale(2.0);
        assert_eq!(m.get(1, 2), 100.0);
    }

    #[test]
    fn from_flows_aggregates_and_sanitizes() {
        let flows = [
            Flow::new(0, 1, 100.0),
            Flow::new(0, 1, 50.0),
            Flow::new(1, 0, f64::NAN),
            Flow::new(1, 0, -5.0),
            Flow::new(9, 0, 10.0), // out of range: ignored
        ];
        let m = DemandMatrix::from_flows(2, &flows);
        assert_eq!(m.get(0, 1), 150.0);
        assert_eq!(m.get(1, 0), 0.0);
        assert_eq!(m.total_gbps(), 150.0);
    }

    #[test]
    fn to_flows_is_row_major_and_skips_zeros() {
        let mut m = DemandMatrix::zeros(3);
        m.set(2, 0, 5.0);
        m.set(0, 2, 7.0);
        m.set(1, 1, 3.0);
        assert_eq!(
            m.to_flows(),
            vec![
                Flow::new(0, 2, 7.0),
                Flow::new(1, 1, 3.0),
                Flow::new(2, 0, 5.0),
            ]
        );
    }
}
