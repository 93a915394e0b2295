//! Provisioning calculator: size an identifier space for a deployment.
//!
//! The practical distillation of the paper's model for someone building
//! a system: given the data size per transaction and the expected
//! transaction density, print the optimal identifier width, its success
//! probability and efficiency, the break-even density against common
//! static address widths, and the projected lifetime extension.
//!
//! Usage: `provision <data_bits> <density> [--safety <extra_bits>]
//! [--json <path>]`
//!
//! ```text
//! $ provision 16 16
//! $ provision 128 40 --safety 2
//! ```
//!
//! `--safety` adds headroom bits above the optimum — the right call when
//! the density estimate is uncertain, since the efficiency curve falls
//! gently to the right of the peak but steeply to the left.

use retri_bench::harness::Provenance;
use retri_bench::table::{self, f};
use retri_model::lifetime::lifetime_extension;
use retri_model::optimal::advantage_over_static;
use retri_model::{
    aff_efficiency, crossover_density, optimal_id_bits, p_success, static_efficiency, DataBits,
    Density, IdBits,
};

fn usage() -> ! {
    eprintln!("usage: provision <data_bits> <density> [--safety <extra_bits>] [--json <path>]");
    std::process::exit(2);
}

/// The calculator's inputs and answer, for `--json` provenance.
#[derive(Debug, Clone, serde::Serialize)]
struct ProvisionPoint {
    data_bits: u32,
    density: u64,
    /// The headroom applied above the optimum: the requested
    /// `--safety` bits, or fewer where the 64-bit cap cuts them.
    safety_bits: u8,
    chosen_id_bits: u8,
    p_success: f64,
    efficiency: f64,
}

/// The optimum widened by `safety` headroom bits, capped at the
/// 64-bit identifier limit.
fn chosen_width(optimum: u8, safety: u8) -> u8 {
    optimum.saturating_add(safety).min(64)
}

/// Sizes the identifier for `data` bits at density `t` with `safety`
/// requested headroom bits.
fn provision(data: DataBits, t: Density, safety: u8) -> ProvisionPoint {
    let optimum = optimal_id_bits(data, t).id_bits.get();
    let chosen_id_bits = chosen_width(optimum, safety);
    let chosen = IdBits::new(chosen_id_bits).expect("within range");
    ProvisionPoint {
        data_bits: data.get(),
        density: t.get(),
        safety_bits: chosen_id_bits - optimum,
        chosen_id_bits,
        p_success: p_success(chosen, t),
        efficiency: aff_efficiency(data, chosen, t).get(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional = Vec::new();
    let mut safety: u8 = 0;
    let mut json = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--safety" {
            safety = iter
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage());
        } else if arg == "--json" {
            json = Some(retri_bench::next_value(&mut iter, arg));
        } else {
            positional.push(arg.clone());
        }
    }
    if positional.len() != 2 {
        usage();
    }
    let data_bits: u32 = positional[0].parse().unwrap_or_else(|_| usage());
    let density: u64 = positional[1].parse().unwrap_or_else(|_| usage());
    let Ok(data) = DataBits::new(data_bits) else {
        eprintln!("data bits must be at least 1");
        std::process::exit(2);
    };
    let Ok(t) = Density::new(density) else {
        eprintln!("density must be at least 1");
        std::process::exit(2);
    };

    let point = provision(data, t, safety);
    let chosen = IdBits::new(point.chosen_id_bits).expect("within range");
    if let Some(path) = json {
        retri_bench::write_json(
            std::path::Path::new(path),
            &Provenance::analytic("provision", vec![point.clone()]),
        );
    }

    println!(
        "Provisioning for D = {data_bits} data bits/transaction, T = {density} concurrent transactions\n"
    );
    println!(
        "optimal identifier width : {}",
        optimal_id_bits(data, t).id_bits
    );
    if safety > 0 {
        println!("with +{} safety bits     : {chosen}", point.safety_bits);
    }
    println!(
        "P(transaction success)   : {:.6}  (Eq. 4, uniform selection; listening does better)",
        point.p_success
    );
    println!(
        "efficiency (Eq. 3)       : {}",
        aff_efficiency(data, chosen, t)
    );

    println!("\nversus static allocation:\n");
    let mut rows = Vec::new();
    for static_bits in [16u8, 32, 48] {
        let address = IdBits::new(static_bits).expect("valid");
        let adv = advantage_over_static(data, t, address);
        let cross = crossover_density(data, address)
            .map(|c| c.get().to_string())
            .unwrap_or_else(|| "-".to_string());
        rows.push(vec![
            format!("{static_bits}-bit static"),
            f(static_efficiency(data, address).get()),
            format!("{:+.1}%", adv * 100.0),
            format!(
                "{:.2}x",
                lifetime_extension(
                    aff_efficiency(data, chosen, t),
                    static_efficiency(data, address),
                )
            ),
            cross,
        ]);
    }
    print!(
        "{}",
        table::render(
            &[
                "scheme",
                "efficiency",
                "AFF advantage",
                "lifetime",
                "AFF wins up to T="
            ],
            &rows,
        )
    );
    println!(
        "\nNotes: the efficiency curve falls steeply left of the optimum and\n\
         gently to its right — if the density estimate is uncertain, err\n\
         wide (--safety). Listening selection (retri::select) pushes\n\
         P(success) above the Eq. 4 floor shown here."
    );
}

#[cfg(test)]
mod tests {
    use super::{chosen_width, provision};
    use retri_model::{optimal_id_bits, DataBits, Density};

    #[test]
    fn the_applied_headroom_is_what_the_cap_leaves() {
        let data = DataBits::new(16).unwrap();
        let t = Density::new(16).unwrap();
        let optimum = optimal_id_bits(data, t).id_bits.get();
        assert_eq!(optimum, 9);
        let asked = provision(data, t, 2);
        assert_eq!((asked.safety_bits, asked.chosen_id_bits), (2, 11));
        // 250 bits asked, but the width stops at 64: 55 are applied.
        let capped = provision(data, t, 250);
        assert_eq!((capped.safety_bits, capped.chosen_id_bits), (55, 64));
        assert_eq!(provision(data, t, 0).safety_bits, 0);
    }

    #[test]
    fn safety_bits_widen_the_optimum_up_to_64() {
        assert_eq!(chosen_width(9, 0), 9);
        assert_eq!(chosen_width(9, 2), 11);
        assert_eq!(chosen_width(9, 60), 64);
        // 9 + 250 does not fit a u8: it must cap, not wrap to 3 bits.
        assert_eq!(chosen_width(9, 250), 64);
        assert_eq!(chosen_width(u8::MAX, u8::MAX), 64);
    }
}
