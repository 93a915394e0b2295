//! Property-based tests of simulator invariants.

use proptest::prelude::*;
use retri_netsim::prelude::*;

/// Every node sends `per_node` frames at start and counts receptions.
struct Chatter {
    per_node: u32,
    heard: u32,
}

impl Protocol for Chatter {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for _ in 0..self.per_node {
            ctx.send(FramePayload::from_bytes(vec![0x55; 8]).unwrap())
                .unwrap();
        }
    }
    fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {
        self.heard += 1;
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _timer: Timer) {}
}

fn build_sim(seed: u64, nodes: usize, per_node: u32, loss: f64, csma: bool) -> ShardedSim<Chatter> {
    let mac = if csma {
        MacConfig::csma()
    } else {
        MacConfig::aloha()
    };
    let mut sim = ShardedSimBuilder::new(seed)
        .radio(RadioConfig::radiometrix_rpc().with_frame_loss(loss))
        .mac(mac)
        .range(100.0)
        .build(move |_| Chatter { per_node, heard: 0 });
    // Full mesh placement.
    let topo = Topology::full_mesh(nodes, 100.0);
    for id in topo.node_ids() {
        sim.add_node_at(topo.position(id));
    }
    sim
}

use retri_netsim::topology::Topology;

/// A deployment-scale smoke test: hundreds of nodes, sparse periodic
/// traffic, sane wall-clock time. Guards against accidental quadratic
/// blowups in the engine's hot paths.
#[test]
fn large_sparse_network_simulates_quickly() {
    struct Sparse;
    impl Protocol for Sparse {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            // Stagger by node id so the channel stays sparse.
            let delay = SimDuration::from_millis(10 * u64::from(ctx.node_id().0));
            ctx.set_timer(delay, 0);
        }
        fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: Timer) {
            let _ = ctx.send(FramePayload::from_bytes(vec![1; 8]).unwrap());
            ctx.set_timer(SimDuration::from_secs(5), 0);
        }
    }
    let mut sim = ShardedSimBuilder::new(77).range(60.0).build(|_| Sparse);
    // A 20x20 grid, 400 nodes, nearest-neighbor connectivity.
    let topo = retri_netsim::topology::Topology::grid(20, 20, 50.0, 60.0);
    for id in topo.node_ids() {
        sim.add_node_at(topo.position(id));
    }
    let started = std::time::Instant::now();
    sim.run_until(SimTime::from_secs(30));
    assert!(sim.stats().frames_sent >= 400 * 6);
    assert!(
        started.elapsed() < std::time::Duration::from_secs(30),
        "400-node simulation took {:?}",
        started.elapsed()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation: every delivery attempt ends in exactly one bucket,
    /// and deliveries never exceed frames_sent × (nodes − 1).
    #[test]
    fn delivery_accounting_is_conserved(
        seed in any::<u64>(),
        nodes in 2usize..6,
        per_node in 1u32..6,
        loss in 0.0f64..0.5,
        csma in any::<bool>(),
    ) {
        let mut sim = build_sim(seed, nodes, per_node, loss, csma);
        sim.run_until(SimTime::from_secs(60));
        let stats = sim.stats();
        prop_assert_eq!(stats.frames_sent, nodes as u64 * per_node as u64);
        let attempts = stats.frames_sent * (nodes as u64 - 1);
        let accounted = stats.deliveries
            + stats.rf_collisions
            + stats.half_duplex_losses
            + stats.random_losses;
        prop_assert_eq!(accounted, attempts);
        // Protocol-level receptions equal medium-level deliveries.
        let heard: u64 = sim.node_ids().map(|n| sim.protocol(n).heard as u64).sum();
        prop_assert_eq!(heard, stats.deliveries);
    }

    /// Determinism: identical seeds and configs produce identical
    /// outcomes; different seeds are allowed to differ.
    #[test]
    fn same_seed_same_world(
        seed in any::<u64>(),
        nodes in 2usize..5,
        per_node in 1u32..5,
    ) {
        let mut a = build_sim(seed, nodes, per_node, 0.1, true);
        let mut b = build_sim(seed, nodes, per_node, 0.1, true);
        a.run_until(SimTime::from_secs(60));
        b.run_until(SimTime::from_secs(60));
        prop_assert_eq!(a.stats(), b.stats());
        for n in a.node_ids() {
            prop_assert_eq!(a.meter(n), b.meter(n));
            prop_assert_eq!(a.protocol(n).heard, b.protocol(n).heard);
        }
    }

    /// Energy conservation: bits received across the network never
    /// exceed bits transmitted times the possible audience size.
    #[test]
    fn energy_bounded_by_broadcast(
        seed in any::<u64>(),
        nodes in 2usize..6,
        per_node in 1u32..5,
    ) {
        let mut sim = build_sim(seed, nodes, per_node, 0.0, true);
        sim.run_until(SimTime::from_secs(60));
        let total = sim.total_meter();
        prop_assert!(total.rx_bits() <= total.tx_bits() * (nodes as u64 - 1));
        prop_assert_eq!(total.tx_frames(), sim.stats().frames_sent);
    }

    /// A duty cycle's awake_at samples approximate its on fraction over
    /// many periods, for arbitrary period/fraction/phase.
    #[test]
    fn duty_cycle_fraction_is_honored(
        period_ms in 1u64..500,
        on_fraction in 0.05f64..=1.0,
        phase_ms in 0u64..500,
    ) {
        use retri_netsim::radio::DutyCycle;
        let duty = DutyCycle::new(
            SimDuration::from_millis(period_ms),
            on_fraction,
            SimDuration::from_millis(phase_ms),
        );
        let period = period_ms * 1000;
        let samples = 10_000u64;
        let awake = (0..samples)
            .filter(|i| {
                // Sample uniformly across 100 periods.
                let t = i * period * 100 / samples;
                duty.awake_at(SimTime::from_micros(t))
            })
            .count() as f64;
        let measured = awake / samples as f64;
        prop_assert!(
            (measured - on_fraction).abs() < 0.05,
            "measured {measured} vs configured {on_fraction}"
        );
    }

    /// The incrementally maintained adjacency cache agrees with a
    /// brute-force recomputation after every topology mutation: random
    /// `add` / `set_position` / `set_alive` sequences never desync the
    /// cached `neighbors` lists or the `in_range` answers.
    #[test]
    fn adjacency_cache_matches_brute_force(
        seed in any::<u64>(),
        ops in 1usize..60,
    ) {
        use rand::prelude::*;
        use retri_netsim::topology::Position;

        let range = 60.0;
        let mut rng = StdRng::seed_from_u64(seed);
        let random_position = |rng: &mut StdRng| {
            // A ~3-range square, so pairs land both in and out of range.
            Position::new(rng.gen_range(0.0..180.0), rng.gen_range(0.0..180.0))
        };
        let mut topo = Topology::new(range);
        for _ in 0..3 {
            let p = random_position(&mut rng);
            topo.add(p);
        }
        for _ in 0..ops {
            let nodes = topo.node_ids().count() as u32;
            match rng.gen_range(0u32..4) {
                0 => {
                    let p = random_position(&mut rng);
                    topo.add(p);
                }
                1 => {
                    let node = NodeId(rng.gen_range(0..nodes));
                    let p = random_position(&mut rng);
                    topo.set_position(node, p);
                }
                _ => {
                    let node = NodeId(rng.gen_range(0..nodes));
                    let alive = rng.gen_range(0u32..2) == 0;
                    topo.set_alive(node, alive);
                }
            }
            // Ground truth uses the same squared-distance predicate the
            // cache is specified against: live, distinct, d² ≤ range².
            let brute_in_range = |a: NodeId, b: NodeId| {
                a != b
                    && topo.is_alive(a)
                    && topo.is_alive(b)
                    && topo.position(a).distance_sq_to(topo.position(b)) <= range * range
            };
            for a in topo.node_ids() {
                let brute: Vec<NodeId> =
                    topo.node_ids().filter(|&b| brute_in_range(a, b)).collect();
                let cached: Vec<NodeId> = topo.neighbors(a).collect();
                prop_assert_eq!(&cached, &brute, "neighbor cache desync at {:?}", a);
                prop_assert_eq!(topo.degree(a), brute.len());
                for b in topo.node_ids() {
                    prop_assert_eq!(topo.in_range(a, b), brute_in_range(a, b));
                }
            }
        }
    }

    /// Tracing is observation only: a traced run and an untraced run of
    /// the same seed produce identical statistics and energy meters.
    #[test]
    fn tracing_does_not_perturb_the_simulation(
        seed in any::<u64>(),
        nodes in 2usize..6,
        per_node in 1u32..5,
        csma in any::<bool>(),
    ) {
        let mut plain = build_sim(seed, nodes, per_node, 0.2, csma);
        let mut traced = build_sim(seed, nodes, per_node, 0.2, csma);
        traced.enable_trace(4096);
        plain.run_until(SimTime::from_secs(60));
        traced.run_until(SimTime::from_secs(60));
        prop_assert_eq!(plain.stats(), traced.stats());
        for n in plain.node_ids() {
            prop_assert_eq!(plain.meter(n), traced.meter(n));
            prop_assert_eq!(plain.protocol(n).heard, traced.protocol(n).heard);
        }
        // The traced run actually recorded something.
        prop_assert!(traced.tracer().expect("enabled").events().count() > 0);
    }

    /// With a lossless radio and a single sender, every frame reaches
    /// every other node exactly once (no spurious losses in a quiet
    /// network).
    #[test]
    fn quiet_network_is_lossless(seed in any::<u64>(), nodes in 2usize..6) {
        let mut sim = ShardedSimBuilder::new(seed)
            .range(100.0)
            .build(|id| Chatter { per_node: if id == NodeId(0) { 7 } else { 0 }, heard: 0 });
        let topo = Topology::full_mesh(nodes, 100.0);
        for id in topo.node_ids() {
            sim.add_node_at(topo.position(id));
        }
        sim.run_until(SimTime::from_secs(60));
        for n in sim.node_ids().skip(1) {
            prop_assert_eq!(sim.protocol(n).heard, 7);
        }
    }
}
