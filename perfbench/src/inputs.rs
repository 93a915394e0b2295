//! Seeded input generation. Every workload input is derived from the
//! `--seed` argument here; the program under test only ever sees the
//! generated values.

use retri_aff::SelectorPolicy;
use retri_service::StrategyKind;

/// SplitMix64: small, fast, and enough for input generation.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for the stream `label` of `seed`.
    #[must_use]
    pub fn new(seed: u64, label: &str) -> Self {
        let mut state = seed ^ 0xA076_1D64_78BD_642F;
        for &b in label.as_bytes() {
            state = (state ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut rng = SplitMix(state);
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// The identifier widths the testbed sweeps.
pub const TESTBED_BITS: [u8; 3] = [4, 6, 8];

/// The listening heuristic's window in the testbed sweep.
pub const LISTEN_WINDOW: usize = 10;

/// One paper trial of the testbed sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialSpec {
    /// Identifier width `H`.
    pub id_bits: u8,
    /// `Listening` when true, `Uniform` otherwise.
    pub listening: bool,
    /// The trial's simulation seed.
    pub seed: u64,
}

impl TrialSpec {
    /// The selector policy of this trial.
    #[must_use]
    pub fn policy(&self) -> SelectorPolicy {
        if self.listening {
            SelectorPolicy::Listening {
                window: LISTEN_WINDOW,
            }
        } else {
            SelectorPolicy::Uniform
        }
    }

    /// Index of the `(H, policy)` cell, `0..6`.
    #[must_use]
    pub fn cell(&self) -> usize {
        let h = TESTBED_BITS
            .iter()
            .position(|&b| b == self.id_bits)
            .expect("sweep width");
        h * 2 + usize::from(self.listening)
    }
}

/// The first `n` trials of the sweep for `seed`: the six `(H, policy)`
/// cells in turn, each trial with its own derived simulation seed.
#[must_use]
pub fn testbed_plan(seed: u64, n: usize) -> Vec<TrialSpec> {
    let mut rng = SplitMix::new(seed, "testbed.trials");
    (0..n)
        .map(|i| TrialSpec {
            id_bits: TESTBED_BITS[(i / 2) % 3],
            listening: i % 2 == 1,
            seed: rng.next_u64(),
        })
        .collect()
}

/// Per-node transmit phases for the mesh, in µs, drawn from
/// `[PHASE_GUARD_US, period − PHASE_GUARD_US)`. Keeping every phase
/// away from the period boundary means that, at each multiple of the
/// period, every frame due before it is already on the air: the frame
/// count there is exact.
#[must_use]
pub fn mesh_phases(seed: u64, nodes: usize, period_us: u64) -> Vec<u64> {
    assert!(
        period_us > 2 * PHASE_GUARD_US,
        "period too short for the guard"
    );
    let mut rng = SplitMix::new(seed, "mesh.phases");
    let span = period_us - 2 * PHASE_GUARD_US;
    (0..nodes)
        .map(|_| PHASE_GUARD_US + rng.below(span))
        .collect()
}

/// Distance kept between any transmit time and a period boundary, µs:
/// longer than the MAC turnaround plus ALOHA's backoff.
pub const PHASE_GUARD_US: u64 = 5_000;

/// Kinds of `retrid` request in the open-loop mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `ALLOC` of one identifier.
    AllocSmall,
    /// `ALLOC` of [`BULK_BATCH`] identifiers.
    AllocBulk,
    /// `RELEASE` of a domain's older identifiers.
    Release,
    /// All-shard `STATS`.
    Stats,
}

impl OpKind {
    /// Every kind, in report order.
    pub const ALL: [OpKind; 4] = [
        OpKind::AllocSmall,
        OpKind::AllocBulk,
        OpKind::Release,
        OpKind::Stats,
    ];

    /// Name used in metric names.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            OpKind::AllocSmall => "alloc_small",
            OpKind::AllocBulk => "alloc_bulk",
            OpKind::Release => "release",
            OpKind::Stats => "stats",
        }
    }
}

/// Identifiers per bulk `ALLOC`.
pub const BULK_BATCH: u32 = 256;

/// The mix, in requests per thousand.
pub const MIX_PER_MILLE: [(OpKind, u64); 4] = [
    (OpKind::AllocSmall, 700),
    (OpKind::AllocBulk, 50),
    (OpKind::Release, 240),
    (OpKind::Stats, 10),
];

/// One collision domain of the service: a `(shard, strategy)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Domain {
    /// Shard index.
    pub shard: u16,
    /// Minting strategy.
    pub strategy: StrategyKind,
}

impl Domain {
    /// Dense index `shard × 5 + strategy code`.
    #[must_use]
    pub fn index(self) -> usize {
        usize::from(self.shard) * StrategyKind::ALL.len() + usize::from(self.strategy.code())
    }
}

/// The domains connection `conn` of `conns` drives: every domain whose
/// dense index is `conn` modulo `conns`. Connections never share a
/// domain, so each one can release exactly the identifiers it was
/// given.
#[must_use]
pub fn owned_domains(shards: u16, conn: usize, conns: usize) -> Vec<Domain> {
    (0..shards)
        .flat_map(|shard| {
            StrategyKind::ALL
                .iter()
                .map(move |&strategy| Domain { shard, strategy })
        })
        .filter(|d| d.index() % conns == conn)
        .collect()
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// What to send.
    pub kind: OpKind,
    /// Target domain (unused by `Stats`).
    pub domain: Domain,
}

/// The request stream of one connection: kinds drawn from the mix,
/// domains in rotation over the connection's own domains.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: SplitMix,
    domains: Vec<Domain>,
    next: usize,
}

impl OpStream {
    /// The stream of connection `conn` for `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `domains` is empty.
    #[must_use]
    pub fn new(seed: u64, conn: usize, domains: Vec<Domain>) -> Self {
        assert!(!domains.is_empty(), "a connection needs a domain");
        OpStream {
            rng: SplitMix::new(seed ^ (conn as u64).wrapping_mul(0x9E37_79B9), "retrid.ops"),
            domains,
            next: 0,
        }
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let mut draw = self.rng.below(1000);
        let mut kind = OpKind::Stats;
        for (k, weight) in MIX_PER_MILLE {
            if draw < weight {
                kind = k;
                break;
            }
            draw -= weight;
        }
        let domain = self.domains[self.next % self.domains.len()];
        self.next += 1;
        Some(Op { kind, domain })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_plan_is_seeded() {
        assert_eq!(testbed_plan(1, 50), testbed_plan(1, 50));
        assert_ne!(testbed_plan(1, 50), testbed_plan(2, 50));
        let plan = testbed_plan(3, 12);
        let cells: Vec<usize> = plan.iter().map(TrialSpec::cell).collect();
        assert_eq!(cells, vec![0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn mesh_phases_are_seeded_and_guarded() {
        let a = mesh_phases(1, 10_000, 250_000);
        assert_eq!(a, mesh_phases(1, 10_000, 250_000));
        assert_ne!(a, mesh_phases(2, 10_000, 250_000));
        assert!(a
            .iter()
            .all(|&p| (PHASE_GUARD_US..250_000 - PHASE_GUARD_US).contains(&p)));
        // Phases must not line up on a coarse grid (the trap of phases
        // derived from node ids).
        let distinct: std::collections::HashSet<u64> = a.iter().map(|p| p / 1000).collect();
        assert!(distinct.len() > 200, "{}", distinct.len());
    }

    #[test]
    fn op_streams_are_seeded_and_follow_the_mix() {
        let domains = owned_domains(2, 0, 2);
        let a: Vec<Op> = OpStream::new(5, 0, domains.clone()).take(20_000).collect();
        let b: Vec<Op> = OpStream::new(5, 0, domains.clone()).take(20_000).collect();
        let c: Vec<Op> = OpStream::new(6, 0, domains.clone()).take(20_000).collect();
        let other_conn: Vec<Op> = OpStream::new(5, 1, domains).take(20_000).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, other_conn);
        for (kind, weight) in MIX_PER_MILLE {
            let share = a.iter().filter(|op| op.kind == kind).count() as f64 / 20.0;
            assert!(
                (share - weight as f64).abs() < weight as f64 * 0.2 + 3.0,
                "{kind:?} {share}"
            );
        }
    }

    #[test]
    fn connections_split_the_domains_and_cover_every_strategy() {
        let mut all: Vec<usize> = Vec::new();
        for conn in 0..2 {
            let owned = owned_domains(2, conn, 2);
            for kind in StrategyKind::ALL {
                assert!(owned.iter().any(|d| d.strategy == kind), "{conn} {kind:?}");
            }
            all.extend(owned.iter().map(|d| d.index()));
        }
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 10);
    }
}
