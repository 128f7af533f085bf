//! **Table I** — parameter settings of the NS-2 simulations, printed from
//! the canonical [`ProtocolConfig::large_scale`] preset and the paper
//! constants of [`comap_core::config`], so the table and the code can
//! never drift apart.

use std::fmt;

use comap_core::config::{ProtocolConfig, HT_MISS_PROBABILITY, T_PRR};

use crate::report::Table;

/// Table I from the preset, printed as an aligned table.
pub fn build() -> impl fmt::Display {
    let cfg = ProtocolConfig::large_scale();
    let mut t = Table::new(
        "Table I — parameter settings for the large-scale simulations",
        &["Parameter", "Value"],
    );
    let rows: Vec<(String, String)> = vec![
        ("Data rate".into(), format!("{}", cfg.model_rate)),
        ("TX power".into(), format!("{}", cfg.tx_power)),
        ("T_PRR".into(), format!("{:.0} %", T_PRR * 100.0)),
        ("T_cs".into(), format!("{}", cfg.t_cs)),
        ("T'_cs".into(), format!("{}", cfg.t_cs_delta())),
        (
            "Path loss exponent α".into(),
            format!("{}", cfg.channel.alpha()),
        ),
        ("Shadowing σ".into(), format!("{}", cfg.channel.sigma())),
        ("T_SIR".into(), format!("{}", cfg.t_sir)),
        (
            "HT miss probability".into(),
            format!("{:.0} %", HT_MISS_PROBABILITY * 100.0),
        ),
        ("ARQ window W_send".into(), format!("{}", cfg.arq_window)),
        ("CBR per flow (paper)".into(), "3 Mbps (two-way)".into()),
        (
            "CBR per flow (ours)".into(),
            "1.2 Mbps (two-way; see EXPERIMENTS.md)".into(),
        ),
        ("Slot / SIFS / DIFS".into(), {
            format!(
                "{} / {} / {}",
                cfg.phy.slot(),
                cfg.phy.sifs(),
                cfg.phy.difs()
            )
        }),
    ];
    for (k, v) in rows {
        t.row(&[k, v]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_paper_values() {
        let rendered = build().to_string();
        for needle in [
            "6 Mbps",
            "20.00 dBm",
            "95 %",
            "-80.00 dBm",
            "-80.14 dBm",
            "3.3",
            "5.00 dB",
            "10.00 dB",
            "90 %",
        ] {
            assert!(
                rendered.contains(needle),
                "missing {needle} in:\n{rendered}"
            );
        }
    }
}
