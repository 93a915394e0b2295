//! Data generation for the paper's four evaluation figures.

use retri_aff::{SelectorPolicy, Testbed};
use retri_model::stats::Summary;
use retri_model::{p_collision, DataBits, Density, IdBits};
use retri_netsim::SimTime;

use crate::harness::{self, Provenance};
use crate::EffortLevel;

/// One row of Figures 1–2: AFF efficiency per density, plus the static
/// flat lines, at one identifier width.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub(crate) struct EfficiencyRow {
    /// Identifier width (x-axis).
    pub id_bits: u8,
    /// AFF efficiency per requested density, in input order.
    pub aff: Vec<f64>,
    /// Static efficiency per requested address width, in input order
    /// (constant down the column).
    pub static_lines: Vec<f64>,
}

/// Figures 1–2: efficiency vs. identifier bits.
///
/// Figure 1 is `data_bits = 16`; Figure 2 is `data_bits = 128`. Both
/// use `densities = [16, 256, 65536]` and static comparators of 16 and
/// 32 bits.
///
/// # Examples
///
/// Each AFF cell is [`retri_model::aff_efficiency`] at the row's width.
/// The `T = 16` curve rises to a peak at 9 bits, then declines
/// (Section 4.2):
///
/// ```
/// use retri_model::{aff_efficiency, DataBits, Density, IdBits};
///
/// # fn main() -> Result<(), retri_model::ModelError> {
/// let d = DataBits::new(16)?;
/// let t = Density::new(16)?;
/// let cell = |h: u8| aff_efficiency(d, IdBits::new(h).unwrap(), t).get();
/// let peak = (1..=32u8).max_by(|&a, &b| cell(a).total_cmp(&cell(b)));
/// assert_eq!(peak, Some(9));
/// # Ok(())
/// # }
/// ```
///
/// # Panics
///
/// Panics on invalid parameter values (these are fixed by the callers).
#[must_use]
pub(crate) fn efficiency_vs_width(
    data_bits: u32,
    densities: &[u64],
    static_bits: &[u8],
    max_width: u8,
) -> Vec<EfficiencyRow> {
    let data = DataBits::new(data_bits).expect("positive data size");
    (1..=max_width)
        .map(|h| {
            let id = IdBits::new(h).expect("valid width");
            EfficiencyRow {
                id_bits: h,
                aff: densities
                    .iter()
                    .map(|&t| {
                        retri_model::aff_efficiency(
                            data,
                            id,
                            Density::new(t).expect("positive density"),
                        )
                        .get()
                    })
                    .collect(),
                static_lines: static_bits
                    .iter()
                    .map(|&bits| {
                        retri_model::static_efficiency(
                            data,
                            IdBits::new(bits).expect("valid width"),
                        )
                        .get()
                    })
                    .collect(),
            }
        })
        .collect()
}

/// The per-density optimum annotations of Figures 1–2.
#[must_use]
pub(crate) fn optima(data_bits: u32, densities: &[u64]) -> Vec<(u64, u8, f64)> {
    let data = DataBits::new(data_bits).expect("positive data size");
    densities
        .iter()
        .map(|&t| {
            let opt =
                retri_model::optimal_id_bits(data, Density::new(t).expect("positive density"));
            (t, opt.id_bits.get(), opt.efficiency.get())
        })
        .collect()
}

/// One row of Figure 3: efficiency vs. load.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub(crate) struct LoadRow {
    /// Transaction density (x-axis).
    pub density: u64,
    /// AFF efficiency per requested identifier width.
    pub aff: Vec<f64>,
    /// Static efficiency per requested address width; `None` once the
    /// space is exhausted (the line simply ends, as in the paper).
    pub static_lines: Vec<Option<f64>>,
}

/// Figure 3: efficiency vs. load for 16-bit data.
///
/// Loads run `1, 2, 4, ...` up to `max_load`.
///
/// # Examples
///
/// A static line keeps [`retri_model::static_efficiency`] while the load
/// fits its address space, then ends. The 4-bit line still holds
/// `T = 16 = 2^4` and ends at `T = 32`:
///
/// ```
/// use retri_model::IdBits;
///
/// # fn main() -> Result<(), retri_model::ModelError> {
/// let space = IdBits::new(4)?.space_len();
/// assert!(16 <= space); // T = 16 still fits
/// assert!(32 > space); // T = 32 exhausts the space
/// # Ok(())
/// # }
/// ```
///
/// # Panics
///
/// Panics on invalid parameter values.
#[must_use]
pub(crate) fn efficiency_vs_load(
    data_bits: u32,
    aff_bits: &[u8],
    static_bits: &[u8],
    max_load: u64,
) -> Vec<LoadRow> {
    let data = DataBits::new(data_bits).expect("positive data size");
    geometric_loads(max_load)
        .iter()
        .map(|&t| LoadRow {
            density: t.get(),
            aff: aff_bits
                .iter()
                .map(|&bits| {
                    retri_model::aff_efficiency(data, IdBits::new(bits).expect("valid width"), t)
                        .get()
                })
                .collect(),
            static_lines: static_bits
                .iter()
                .map(|&bits| {
                    let id = IdBits::new(bits).expect("valid width");
                    if u128::from(t.get()) <= id.space_len() {
                        Some(retri_model::static_efficiency(data, id).get())
                    } else {
                        None
                    }
                })
                .collect(),
        })
        .collect()
}

/// Geometrically spaced densities `1, 2, 4, ...` up to and including
/// `max`: Figure 3's log-scale load axis.
fn geometric_loads(max: u64) -> Vec<Density> {
    let mut loads = Vec::new();
    let mut t = 1u64;
    while t <= max {
        loads.push(Density::new(t).expect("nonzero"));
        match t.checked_mul(2) {
            Some(next) => t = next,
            None => break,
        }
    }
    loads
}

/// One point of Figure 4: a (policy, identifier-width) cell.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub(crate) struct CollisionPoint {
    /// Identifier width under test.
    pub id_bits: u8,
    /// Human-readable policy name ("random" / "listening").
    pub policy: &'static str,
    /// Collision rates over the trials.
    pub observed: Summary,
    /// The Eq. 4 model prediction at T = 5.
    pub predicted: f64,
}

/// The two selection policies of Figure 4.
#[must_use]
pub(crate) fn fig4_policies() -> Vec<(&'static str, SelectorPolicy)> {
    vec![
        ("random", SelectorPolicy::Uniform),
        (
            "listening",
            SelectorPolicy::AdaptiveListening {
                concurrency_ttl_micros: 400_000,
            },
        ),
    ]
}

/// Figure 4: collision rate predicted vs. observed, five transmitters
/// to one receiver, over a range of identifier sizes, for both
/// policies. Cells are the (policy, width) grid in sweep order; trials
/// run in parallel through [`harness::run_cells`], seeded by
/// [`harness::trial_seed`].
///
/// # Panics
///
/// Panics if a worker thread panics.
#[must_use]
pub(crate) fn fig4_series(
    level: EffortLevel,
    shards: usize,
    id_sizes: &[u8],
) -> Provenance<CollisionPoint> {
    let density = Density::new(5).expect("five transmitters");
    let mut cells = Vec::new();
    for (name, policy) in fig4_policies() {
        for &bits in id_sizes {
            cells.push((name, policy, bits));
        }
    }
    let runs = harness::run_cells("fig4", level, &cells, |&(_, policy, bits), trial| {
        let mut testbed = Testbed::paper(bits, policy);
        testbed.shards = shards;
        testbed.workload.stop = SimTime::from_secs(level.trial_secs());
        testbed.run(trial.seed).collision_loss_rate
    });
    let mut provenance = Provenance::new("fig4", level);
    for (&(name, _, bits), cell_runs) in cells.iter().zip(runs) {
        let observed = cell_runs.summarize(|&rate| rate);
        provenance.push_cell(
            cell_runs.seeds,
            CollisionPoint {
                id_bits: bits,
                policy: name,
                observed,
                predicted: p_collision(IdBits::new(bits).expect("valid width"), density),
            },
        );
    }
    provenance.with_run_metrics()
}

/// One row of the measured end-to-end efficiency comparison: a scheme
/// (AFF at some width, or static addressing at some width) with its
/// measured Eq. 1 efficiency and identifier-collision loss.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct MeasuredEfficiencyPoint {
    /// Human-readable scheme label.
    pub scheme: String,
    /// Measured useful-bits / transmitted-bits across trials.
    pub efficiency: Summary,
    /// Measured identifier-collision loss (always 0 for static).
    pub collision_loss: Summary,
}

/// Measured end-to-end efficiency: AFF at several widths vs. static
/// addressing, on the same simulated radios and workload (the
/// `efficiency_measured` experiment).
#[must_use]
pub fn measured_efficiency(
    level: EffortLevel,
    shards: usize,
) -> Provenance<MeasuredEfficiencyPoint> {
    let packet_bits = 80.0 * 8.0;
    let static_address = SelectorPolicy::StaticAddress { seq_bits: 8 };
    let mut cells: Vec<(u8, SelectorPolicy)> = [4u8, 6, 8, 10, 12, 16]
        .map(|bits| (bits, SelectorPolicy::Uniform))
        .to_vec();
    cells.extend([16u8, 32, 48].map(|bits| (bits, static_address)));
    let runs = harness::run_cells(
        "efficiency_measured",
        level,
        &cells,
        |&(bits, policy), trial| {
            let mut testbed = Testbed::paper(bits, policy);
            testbed.shards = shards;
            testbed.workload.stop = SimTime::from_secs(level.trial_secs());
            let result = testbed.run(trial.seed);
            let efficiency =
                result.aff_delivered as f64 * packet_bits / result.total_bits_sent as f64;
            // Static keys never collide. A static trial's `collision_loss_rate`
            // is not zero: it counts packets whose reassembly expired (or was
            // still pending at the deadline) while the TTL-free ground-truth
            // pipeline completed them.
            let collision_loss = if policy == static_address {
                0.0
            } else {
                result.collision_loss_rate
            };
            (efficiency, collision_loss)
        },
    );
    let mut provenance = Provenance::new("efficiency_measured", level);
    for (&(bits, policy), cell_runs) in cells.iter().zip(runs) {
        let scheme = if policy == static_address {
            format!("static {bits}-bit (+8-bit seq)")
        } else {
            format!("AFF {bits}-bit")
        };
        let efficiency = cell_runs.summarize(|&(eff, _)| eff);
        let collision_loss = cell_runs.summarize(|&(_, loss)| loss);
        provenance.push_cell(
            cell_runs.seeds,
            MeasuredEfficiencyPoint {
                scheme,
                efficiency,
                collision_loss,
            },
        );
    }
    provenance.with_run_metrics()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_rows_cover_widths_and_flat_lines() {
        let rows = efficiency_vs_width(16, &[16, 256, 65536], &[16, 32], 32);
        assert_eq!(rows.len(), 32);
        for row in &rows {
            assert_eq!(row.aff.len(), 3);
            assert!((row.static_lines[0] - 0.5).abs() < 1e-12);
            assert!((row.static_lines[1] - 1.0 / 3.0).abs() < 1e-12);
        }
        // Peak of the T=16 curve at 9 bits (paper Section 4.2).
        let peak = rows
            .iter()
            .max_by(|a, b| a.aff[0].total_cmp(&b.aff[0]))
            .unwrap();
        assert_eq!(peak.id_bits, 9);
    }

    #[test]
    fn width_sweep_covers_requested_widths_in_order() {
        let rows = efficiency_vs_width(16, &[16], &[], 32);
        let widths: Vec<u8> = rows.iter().map(|row| row.id_bits).collect();
        assert_eq!(widths, (1..=32).collect::<Vec<u8>>());
    }

    #[test]
    fn width_sweep_is_unimodal_for_paper_scenarios() {
        // Every AFF curve rises to its one peak and falls after it: the
        // "consistent shape" described in Section 4.2.
        let rows = efficiency_vs_width(16, &[16, 256, 65536], &[], 32);
        for curve in 0..3 {
            let peak = rows
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.aff[curve].total_cmp(&b.1.aff[curve]))
                .map(|(i, _)| i)
                .unwrap();
            for w in rows.windows(2).take(peak) {
                assert!(w[0].aff[curve] <= w[1].aff[curve]);
            }
            for w in rows.windows(2).skip(peak) {
                assert!(w[0].aff[curve] >= w[1].aff[curve]);
            }
        }
    }

    #[test]
    fn static_line_is_flat() {
        // Figure 2's static lines: D / (D + address) at every width.
        let rows = efficiency_vs_width(128, &[16], &[16, 32], 32);
        for row in &rows {
            assert!((row.static_lines[0] - 128.0 / 144.0).abs() < 1e-12);
            assert!((row.static_lines[1] - 0.8).abs() < 1e-12);
        }
    }

    #[test]
    fn fig2_larger_data_moves_optimum_right() {
        let o16 = optima(16, &[16]);
        let o128 = optima(128, &[16]);
        assert!(o128[0].1 > o16[0].1);
    }

    #[test]
    fn fig3_static_line_ends_at_exhaustion() {
        let rows = efficiency_vs_load(16, &[9], &[8], 1 << 12);
        for row in &rows {
            if row.density <= 256 {
                assert!(row.static_lines[0].is_some());
            } else {
                assert!(row.static_lines[0].is_none(), "T={}", row.density);
            }
        }
    }

    #[test]
    fn load_sweep_is_monotone_decreasing() {
        // The AFF curve at H = 9 never rises with load.
        let rows = efficiency_vs_load(16, &[9], &[], 1 << 20);
        assert_eq!(rows.len(), 21);
        for w in rows.windows(2) {
            assert!(w[0].aff[0] >= w[1].aff[0], "T={}", w[1].density);
        }
    }

    #[test]
    fn static_load_line_cuts_off_at_space_exhaustion() {
        // A 3-bit space names 8 transactions: defined up to T = 8, cut off
        // from T = 16 on.
        let rows = efficiency_vs_load(16, &[], &[3], 16);
        let defined: Vec<(u64, bool)> = rows
            .iter()
            .map(|row| (row.density, row.static_lines[0].is_some()))
            .collect();
        assert_eq!(
            defined,
            vec![(1, true), (2, true), (4, true), (8, true), (16, false)]
        );
    }

    #[test]
    fn figure3_crossover_visible_in_series() {
        // Past the point a 5-bit static space is exhausted (T > 32), AFF at
        // H = 9 still has an efficiency. It underflows to 0.0 at T = 2^20,
        // so "defined" is "in [0, 1]".
        let rows = efficiency_vs_load(16, &[9], &[5], 1 << 20);
        let exhausted = rows
            .iter()
            .filter(|row| row.static_lines[0].is_none())
            .count();
        assert_eq!(exhausted, 15); // T = 2^6 ..= 2^20
        for row in &rows {
            assert!((0.0..=1.0).contains(&row.aff[0]), "T={}", row.density);
        }
    }

    #[test]
    fn geometric_loads_doubles_up_to_max() {
        let loads = |max| {
            geometric_loads(max)
                .iter()
                .map(|t| t.get())
                .collect::<Vec<_>>()
        };
        assert_eq!(loads(16), vec![1, 2, 4, 8, 16]);
        // max not itself a power of two: stops below it.
        assert_eq!(loads(20), vec![1, 2, 4, 8, 16]);
    }

    #[test]
    fn fig4_quick_run_matches_model_shape() {
        let provenance = fig4_series(EffortLevel::Quick, 1, &[3, 8]);
        let points: Vec<&CollisionPoint> = provenance.points().collect();
        assert_eq!(points.len(), 4);
        for point in &points {
            assert!(point.observed.mean >= 0.0 && point.observed.mean <= 1.0);
        }
        // Collisions drop with width for the random policy.
        let random3 = points
            .iter()
            .find(|p| p.policy == "random" && p.id_bits == 3)
            .unwrap();
        let random8 = points
            .iter()
            .find(|p| p.policy == "random" && p.id_bits == 8)
            .unwrap();
        assert!(random3.observed.mean > random8.observed.mean);
        // Listening helps at the narrow width.
        let listening3 = points
            .iter()
            .find(|p| p.policy == "listening" && p.id_bits == 3)
            .unwrap();
        assert!(listening3.observed.mean < random3.observed.mean);
    }

    #[test]
    fn fig4_seeds_pairwise_distinct_across_all_cells() {
        // The old scheme `(bits << 32) ^ (trial << 8) ^ name.len()`
        // could alias cells; the harness derivation must give every
        // (policy, id_bits, trial) coordinate of the full Figure 4 grid
        // its own seed.
        let id_sizes: Vec<u8> = (1..=12).collect();
        let cell_count = fig4_policies().len() * id_sizes.len();
        let mut seen = std::collections::HashSet::new();
        for cell_index in 0..cell_count {
            for trial in 0..EffortLevel::Paper.trials() {
                assert!(
                    seen.insert(harness::trial_seed("fig4", cell_index, trial)),
                    "seed collision at cell {cell_index}, trial {trial}"
                );
            }
        }
        assert_eq!(
            seen.len(),
            cell_count * EffortLevel::Paper.trials() as usize
        );
    }
}
