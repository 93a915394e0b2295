//! Every reply of a seeded request stream, pinned to the bytes the
//! allocator served before its live multiset and its Eq. 4 accounting
//! were optimised.
//!
//! The stream drives [`ServiceHandle`] through all five strategies with
//! single and 256-id `ALLOC`s, `RELEASE`s that mix live ids, misses,
//! stale ids and ids held twice after a collision, and `STATS` for one
//! shard and for all shards. One domain is finally pushed past several
//! thousand live values. Each reply is folded, in its wire encoding
//! (floats as IEEE-754 bits), into one FNV-1a digest; the final
//! `STATS` floats are also pinned one by one through [`f64::to_bits`]
//! so a drift names the domain it happened in. The final `STATS` is
//! also folded into a metrics registry ([`retri_service::obs::record`])
//! and its Prometheus text pinned by digest, to the bytes the daemon
//! printed when it mirrored every mint into the registry as it went.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retri::hash::{fnv1a, FNV_OFFSET};
use retri_obs::Obs;
use retri_service::proto::{encode_reply, ALL_SHARDS};
use retri_service::{Reply, Request, ServiceConfig, ServiceHandle, StrategyKind};

struct Run {
    digest: u64,
    /// FNV-1a digest of the final STATS folded into Prometheus text.
    prometheus: u64,
    replies: u64,
    /// Final all-shard STATS as `(predicted_collisions, eq4_p_collision)` bits.
    floats: Vec<(u64, u64)>,
    collisions: u64,
    release_misses: u64,
    max_live_distinct: u64,
}

struct Client {
    handle: ServiceHandle,
    rng: StdRng,
    shards: u16,
    /// Ids handed out and not yet released, per (shard, strategy); a
    /// collided value appears once per holder.
    held: Vec<Vec<u128>>,
    released: Vec<u128>,
    digest: u64,
    replies: u64,
    bytes: Vec<u8>,
}

impl Client {
    fn new(seed: u64, bits: u8, shards: u16) -> Self {
        let mut config = ServiceConfig::new(seed);
        config.shards = shards;
        config.bits = bits;
        config.listen_window = 16;
        Client {
            handle: ServiceHandle::new(&config),
            rng: StdRng::seed_from_u64(seed ^ 0x5EED),
            shards,
            held: vec![Vec::new(); usize::from(shards) * StrategyKind::ALL.len()],
            released: Vec::new(),
            digest: FNV_OFFSET,
            replies: 0,
            bytes: Vec::new(),
        }
    }

    /// Serves `req` and folds its wire encoding into the FNV-1a digest.
    fn serve(&mut self, req: &Request) -> Reply {
        let reply = self.handle.request(req);
        self.bytes.clear();
        encode_reply(&reply, &mut self.bytes);
        self.digest = fnv1a(self.digest, &self.bytes);
        self.replies += 1;
        reply
    }

    /// One request on `(shard, strategy index)`; `op` picks its kind.
    fn step(&mut self, shard: u16, s: usize, op: u32) {
        let strategy = StrategyKind::ALL[s];
        let slot = usize::from(shard) * StrategyKind::ALL.len() + s;
        if op < 55 {
            let count = if op < 45 { 1 } else { 256 };
            let reply = self.serve(&Request::Alloc {
                shard,
                strategy,
                count,
            });
            let Reply::Ids(ids) = reply else {
                panic!("expected IDS, got {reply:?}");
            };
            assert_eq!(ids.len(), count as usize);
            self.held[slot].extend(ids);
        } else if op < 90 {
            let rng = &mut self.rng;
            let want = if rng.gen_bool(0.2) {
                256
            } else {
                rng.gen_range(1..=8usize)
            };
            let held = &mut self.held[slot];
            let mut ids = Vec::new();
            for _ in 0..want.min(held.len()) {
                let at = rng.gen_range(0..held.len());
                ids.push(held.swap_remove(at));
            }
            if rng.gen_bool(0.25) {
                ids.push((1u128 << 100) | u128::from(rng.gen::<u64>()));
            }
            if !self.released.is_empty() && rng.gen_bool(0.125) {
                ids.push(self.released[rng.gen_range(0..self.released.len())]);
            }
            let reply = self.serve(&Request::Release {
                shard,
                strategy,
                ids: ids.clone(),
            });
            assert!(matches!(reply, Reply::Released { .. }), "got {reply:?}");
            self.released.extend(ids);
        } else if op < 95 {
            let _ = self.serve(&Request::Stats { shard });
        } else {
            let _ = self.serve(&Request::Stats { shard: ALL_SHARDS });
        }
    }

    fn random_step(&mut self) {
        let shard = self.rng.gen_range(0..self.shards);
        let s = self.rng.gen_range(0..StrategyKind::ALL.len());
        let op = self.rng.gen_range(0..100u32);
        self.step(shard, s, op);
    }
}

/// `steps` random requests, then 24 bulk `ALLOC`s on shard 0's
/// `pushed` strategy to take it past several thousand live values.
fn drive(seed: u64, bits: u8, shards: u16, steps: usize, pushed: StrategyKind) -> Run {
    let mut client = Client::new(seed, bits, shards);
    for _ in 0..steps {
        client.random_step();
    }
    for _ in 0..24 {
        client.step(0, pushed.code() as usize, 50);
    }
    let _ = client.serve(&Request::Stats { shard: 0 });
    let reply = client.serve(&Request::Stats { shard: ALL_SHARDS });
    let Reply::Stats(entries) = reply else {
        panic!("expected STATS");
    };
    assert_eq!(entries.len(), usize::from(shards) * StrategyKind::ALL.len());
    let mut obs = Obs::enabled();
    retri_service::obs::record(&mut obs, &entries);
    let text = obs.snapshot().expect("enabled").to_prometheus();
    Run {
        digest: client.digest,
        prometheus: fnv1a(FNV_OFFSET, text.as_bytes()),
        replies: client.replies,
        floats: entries
            .iter()
            .map(|e| {
                (
                    e.predicted_collisions.to_bits(),
                    e.eq4_p_collision.to_bits(),
                )
            })
            .collect(),
        collisions: entries.iter().map(|e| e.collisions).sum(),
        release_misses: entries.iter().map(|e| e.release_misses).sum(),
        max_live_distinct: entries.iter().map(|e| e.live_distinct).max().unwrap_or(0),
    }
}

fn check(run: &Run, digest: u64, prometheus: u64, replies: u64, floats: &[(u64, u64)]) {
    // The stream must reach the paths it pins.
    assert!(run.collisions > 0, "no collision was minted");
    assert!(run.release_misses > 0, "no release missed");
    assert!(
        run.max_live_distinct > 4096,
        "no domain grew past 4096 live values"
    );
    assert_eq!(run.replies, replies, "reply count");
    assert_eq!(run.floats.len(), floats.len(), "STATS entries");
    for (i, (got, want)) in run.floats.iter().zip(floats).enumerate() {
        assert_eq!(
            got,
            want,
            "entry {i}: (predicted_collisions, eq4_p_collision) bits {:?} != {:?}",
            (f64::from_bits(got.0), f64::from_bits(got.1)),
            (f64::from_bits(want.0), f64::from_bits(want.1)),
        );
    }
    assert_eq!(run.digest, digest, "reply digest {:#018x}", run.digest);
    assert_eq!(
        run.prometheus, prometheus,
        "metrics digest {:#018x}",
        run.prometheus
    );
}

#[test]
fn eight_bit_stream_on_two_shards_matches_its_pin() {
    let run = drive(11, 8, 2, 3000, StrategyKind::Tribles128);
    check(
        &run,
        0x0a5c_59e4_3c99_07f2,
        0x4c83_cf6a_3720_01be,
        3026,
        &[
            (0x40b8_aadf_c0a5_d5ba, 0x3ff0_0000_0000_0000),
            (0x40b0_6e8b_b1c1_ab6f, 0x3fef_fff7_e17a_204a),
            (0x40b3_9c16_1e33_8c9e, 0x3fef_f237_92ff_2f5f),
            (0x40b0_67a2_67b6_6498, 0x3fef_ffff_d6d4_bc0f),
            (0, 0),
            (0x40b0_a62a_f357_85dd, 0x3fef_ffff_6ff4_3219),
            (0x40b6_f097_378c_70c1, 0x3fef_ffff_ffff_ffd9),
            (0x40b1_caf5_195e_eac8, 0x3fef_ffff_ffff_d9fe),
            (0x40b4_efe0_fb4f_e0e3, 0x3fef_ffff_ffff_fdb2),
            (0, 0),
        ],
    );
}

#[test]
fn sixteen_bit_stream_on_three_shards_matches_its_pin() {
    let run = drive(23, 16, 3, 2000, StrategyKind::Uniform);
    check(
        &run,
        0xd566_c614_8120_2ec4,
        0x550d_fc2b_df11_ed42,
        2026,
        &[
            (0x4077_9d85_93e8_23df, 0x3fc9_02d6_5912_0c74),
            (0x403c_df3f_251e_3cc5, 0x3f96_d5e0_9577_d620),
            (0x404e_d91c_50ea_aaf4, 0x3fa2_3711_3dba_7620),
            (0x4043_5767_342d_2e02, 0x3fae_3dfd_d998_8390),
            (0, 0),
            (0x402b_1b7b_af53_c88f, 0x3f97_f71d_8359_3900),
            (0x4022_5f1d_691e_6fe6, 0),
            (0x403e_f244_e57e_10be, 0x3fa7_3cd2_3c03_7ff0),
            (0x4054_7184_7826_1555, 0x3fb6_79a6_2e66_ce38),
            (0, 0),
            (0x4034_eac3_5b87_9e4c, 0x3fa3_a12c_7bd7_eb90),
            (0x4056_bc3d_87f8_509a, 0x3fb0_784a_a11e_5320),
            (0x402c_f56a_966d_02f9, 0x3f7e_2388_807b_c280),
            (0x4054_e5e0_7f5d_a7b3, 0x3fad_9481_86fd_2a20),
            (0, 0),
        ],
    );
}
