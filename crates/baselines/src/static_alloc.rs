//! Static, globally unique address allocation.
//!
//! The Ethernet model (paper Section 2.2): every device that exists
//! gets a distinct address at "manufacture time", from a space sized
//! for the whole universe of devices. Any interconnected subset is
//! collision-free by construction — and carries the full address width
//! in every packet for it.

/// Minimum address bits for `nodes` distinct nodes — the paper's
/// "optimal" static allocation, handing out addresses `0, 1, 2, ...`
/// from the tightest space that can name every node.
///
/// # Examples
///
/// ```
/// use retri_baselines::static_alloc::bits_required;
///
/// // 16 bits suffice for the paper's "tens of thousands of nodes".
/// assert_eq!(bits_required(40_000), 16);
/// ```
#[must_use]
pub fn bits_required(nodes: u64) -> u8 {
    match nodes {
        0 | 1 => 1,
        n => (64 - (n - 1).leading_zeros()) as u8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_required_matches_paper_scenarios() {
        // "tens of thousands of nodes ... about 16 bits will be
        // sufficient" (Section 4.2).
        assert_eq!(bits_required(40_000), 16);
        assert_eq!(bits_required(65_536), 16);
        assert_eq!(bits_required(65_537), 17);
        assert_eq!(bits_required(2), 1);
        assert_eq!(bits_required(1), 1);
        assert_eq!(bits_required(0), 1);
        assert_eq!(bits_required(256), 8);
        assert_eq!(bits_required(257), 9);
    }
}
