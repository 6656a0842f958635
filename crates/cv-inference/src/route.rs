//! The one shard-routing implementation every plane shares.
//!
//! Three subsystems partition state by address: the sharded community invariant
//! store (`cv-fleet`), the manager plane's record of which store shards a patch plan
//! touched (`cv-core::manager`), and the snapshot/delta-sync persistence plane
//! (`cv-store`). If each re-derived its own
//! address → shard map, a change to one (shard count, hash) could silently desync the
//! others — a delta snapshot cut under one routing would scatter invariants across
//! the wrong shards of a live store under another. [`ShardRouter`] is therefore the
//! single source of truth: everything that routes addresses to shards either holds a
//! `ShardRouter` or calls [`ShardRouter::route`] through a compatibility wrapper
//! (`InvariantDatabase::shard_of`).

use cv_isa::Addr;

/// Routes addresses to shards with Fibonacci multiplicative hashing.
///
/// The hash spreads the consecutive instruction addresses of hot procedures across
/// shards instead of clustering them. The high half of the product feeds the modulus —
/// the low bits of `addr * K mod 2^k` would just relabel `addr mod 2^k` for
/// power-of-two shard counts (the common case).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shard_count: usize,
}

impl ShardRouter {
    /// A router over `shard_count` shards (at least 1).
    pub fn new(shard_count: usize) -> Self {
        ShardRouter {
            shard_count: shard_count.max(1),
        }
    }

    /// Number of shards routed to.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// The shard that owns `addr`.
    pub fn shard_of(&self, addr: Addr) -> usize {
        Self::route(addr, self.shard_count)
    }

    /// The shard (of `shard_count`) that owns `addr` — the underlying stateless map.
    pub fn route(addr: Addr, shard_count: usize) -> usize {
        assert!(shard_count > 0, "shard_count must be positive");
        let hashed = (addr as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        (hashed % shard_count as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_agrees_with_the_stateless_map() {
        let router = ShardRouter::new(8);
        assert_eq!(router.shard_count(), 8);
        for addr in (0x4_0000u32..0x4_0100).step_by(4) {
            assert_eq!(router.shard_of(addr), ShardRouter::route(addr, 8));
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let router = ShardRouter::new(0);
        assert_eq!(router.shard_count(), 1);
        assert_eq!(router.shard_of(0xdead), 0);
    }

    #[test]
    fn consecutive_addresses_spread_across_power_of_two_counts() {
        for shard_count in [4usize, 8, 16] {
            let mut hit = vec![false; shard_count];
            for addr in (0x4_0000u32..0x4_0400).step_by(4) {
                hit[ShardRouter::route(addr, shard_count)] = true;
            }
            assert!(hit.iter().all(|h| *h), "stride-4 must reach all shards");
        }
    }
}
