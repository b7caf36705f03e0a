//! Parametric NUMA machine descriptions and the calibrated cost model.
//!
//! The paper's experimentation platform (§4.1) is a single host with four
//! quad-core 1.9 GHz Opteron 8347HE processors, one memory node per
//! processor (8 GB each, 2 MB shared L3), connected by HyperTransport links,
//! with a remote-access NUMA factor of 1.2–1.4.
//!
//! This crate describes such machines as data: nodes, cores, caches,
//! point-to-point links with bandwidths, shortest-path routing between
//! nodes, and a [`CostModel`] holding every timing constant used by the
//! simulated kernel and memory system. The constants are calibrated to the
//! paper's own measurements (see DESIGN.md §4).

pub mod cost;
pub mod presets;
pub mod spec;
pub mod topology;

pub use cost::{CostModel, MigrationQuanta, QuantaCache};
pub use spec::{CoreSpec, Link, MemTier, NodeSpec};
pub use topology::{Topology, TopologyError};

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a NUMA node (memory bank + attached cores).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NodeId(pub u16);

/// Identifier of a CPU core.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct CoreId(pub u16);

/// Identifier of an interconnect link (HyperTransport-style, bidirectional).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct LinkId(pub u16);

impl NodeId {
    /// The index as a `usize`, for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl CoreId {
    /// The index as a `usize`, for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl LinkId {
    /// The index as a `usize`, for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// `x.round() as u64` in integer arithmetic: round half away from zero,
/// saturating at 0 below and at `u64::MAX` above, with NaN mapping to 0.
///
/// Equal to `x.round() as u64` for every `f64`. `f64::round` is not an
/// SSE2 instruction, so on baseline x86-64 it compiles to a libm call,
/// and every per-page cost on the migration path rounds at least once.
/// The truncating cast and the comparison are exact: below 2^53 the
/// fraction `x - t` is representable, from 2^53 up every `f64` is an
/// integer (fraction 0), and at or above 2^64 the cast saturates exactly
/// where `round` does.
#[inline]
pub fn round_ns(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add((x - t as f64 >= 0.5) as u64)
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core#{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn id_display() {
        assert_eq!(NodeId(2).to_string(), "node#2");
        assert_eq!(CoreId(7).to_string(), "core#7");
        assert_eq!(LinkId(1).to_string(), "link#1");
    }

    /// `round_ns` against `round() as u64` on the values where rounding
    /// goes wrong first: signed zeros, exact and just-below halves, the
    /// largest binades with a fractional bit, the 2^64 saturation edge,
    /// non-finite values, negatives and subnormals.
    #[test]
    fn round_ns_matches_round_on_edge_cases() {
        let mut xs = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            0.49999999999999994,
            1.5,
            2.5,
            -2.5,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1.0,
            -1e300,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            u64::MAX as f64,
            f64::from_bits((u64::MAX as f64).to_bits() - 1),
            f64::from_bits((u64::MAX as f64).to_bits() + 1),
        ];
        for e in 50..=54 {
            let p = (1u64 << e) as f64;
            for d in [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5] {
                xs.push(p + d);
            }
            xs.push(f64::from_bits(p.to_bits() - 1));
            xs.push(f64::from_bits(p.to_bits() + 1));
        }
        for x in xs {
            assert_eq!(
                round_ns(x),
                x.round() as u64,
                "x = {x:e} ({:#x})",
                x.to_bits()
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        /// Every bit pattern: NaN payloads, subnormals, both signs, all
        /// exponents.
        #[test]
        fn round_ns_matches_round_on_any_bits(bits in any::<u64>()) {
            let x = f64::from_bits(bits);
            prop_assert_eq!(round_ns(x), x.round() as u64);
        }

        /// Values within a few ulps of `n + 0.5`, where a wrong tie rule
        /// or an inexact fraction would show.
        #[test]
        fn round_ns_matches_round_near_halves(
            n in 0u64..(1u64 << 53),
            ulps in 0u64..9,
        ) {
            let half = n as f64 + 0.5;
            for x in [
                half,
                f64::from_bits(half.to_bits().saturating_sub(ulps)),
                f64::from_bits(half.to_bits() + ulps),
            ] {
                prop_assert_eq!(round_ns(x), x.round() as u64);
            }
        }
    }

    #[test]
    fn id_index_roundtrip() {
        assert_eq!(NodeId(3).index(), 3);
        assert_eq!(CoreId(15).index(), 15);
    }
}
