//! The analytical goodput model (paper Section IV-D2, eqs. 5–9).
//!
//! Bianchi's saturated-DCF analysis assumes an ideal channel: every
//! station hears every other, so losses come only from synchronized slot
//! collisions. The paper extends it with **hidden terminals**: a node `i`
//! with `c` contending neighbors and `h` hidden terminals succeeds in a
//! randomly chosen slot with probability
//!
//! ```text
//! P_sᵢ = τ (1−τ)ᶜ [(1−τ)ʰ]ᵏ        (eq. 9)
//! ```
//!
//! where `k = (T_s + T_i)/E[slot_HT]` is the number of slots during which
//! a hidden terminal could start and overlap the transmission — the
//! classic "vulnerability window" spanning the node's own frame plus a
//! hidden frame before it. Crucially, `k` is measured in the **hidden
//! terminal's own** expected slot length: a hidden terminal cannot
//! carrier-sense the tagged cell, so its clock advances through its own
//! idle slots and transmissions, `E[slot_HT] = (1−τ)σ + τT_s`. (Measuring
//! `k` in the tagged cell's slot length would make the per-frame collision
//! probability almost independent of the payload size and erase the
//! interior payload optimum that the paper's Fig. 2 and Fig. 7 observe.)
//! The goodput of node `i` is then `S_i = P_sᵢ · L / E[slot]` (eq. 5) with
//! Bianchi's slot length
//!
//! ```text
//! E[slot] = (1−P_tr) T₀ + P_tr P_s T_s + P_tr (1−P_s) T_c
//! ```
//!
//! The backoff window is assumed constant (`τ = 2/(W+1)`), which is what
//! CO-MAP installs when it adapts parameters.

use std::num::NonZeroU32;

use serde::{Deserialize, Serialize};

use comap_mac::time::SimDuration;
use comap_mac::timing::PhyTiming;
use comap_radio::rates::Rate;

/// Behaviour assumed of the hidden terminals when they do not mirror the
/// tagged cell (the heterogeneous extension used by the adaptation
/// table: the HTs are ordinary DCF stations that keep their own window
/// and frame size while *we* adapt ours).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HiddenProfile {
    /// The hidden terminals' (constant-equivalent) contention window.
    pub cw: u32,
    /// The hidden terminals' payload size in bytes.
    pub payload_bytes: u32,
}

/// Inputs of one model evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelInput {
    /// PHY timing profile (slots, SIFS/DIFS, preamble).
    pub phy: PhyTiming,
    /// Data rate of every station (homogeneous network).
    pub rate: Rate,
    /// Constant contention window `W`, at least 1 by construction: a
    /// zero window would put `τ = 2/(W+1)` at 2.
    pub cw: NonZeroU32,
    /// Number of *other* contending stations `c` (the cell has `c + 1`).
    pub contenders: usize,
    /// Number of potential hidden terminals `h`.
    pub hidden: usize,
    /// Payload length `L` in bytes.
    pub payload_bytes: u32,
    /// `None` — the paper's homogeneous network (HTs share `cw` and
    /// `payload_bytes`); `Some` — heterogeneous HTs with their own
    /// profile.
    pub hidden_profile: Option<HiddenProfile>,
}

/// Intermediate quantities of one evaluation, exposed for validation
/// against simulation (C-INTERMEDIATE).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlotStats {
    /// Per-slot transmission probability `τ = 2/(W+1)`.
    pub tau: f64,
    /// Probability a slot carries at least one transmission (eq. 6).
    pub p_tr: f64,
    /// Probability a busy slot is a success, ignoring HTs (eq. 7).
    pub p_s: f64,
    /// Duration of a successful exchange `T_s` (eq. 8).
    pub t_s: SimDuration,
    /// Duration of a collision `T_c` (eq. 8).
    pub t_c: SimDuration,
    /// Expected slot length `E[slot]` of the tagged cell.
    pub e_slot: f64,
    /// Expected slot length of a (lone, saturated) hidden terminal.
    pub e_slot_ht: f64,
    /// Vulnerability window in HT slots, `k = (T_s + T_i)/E[slot_HT]`.
    pub k: f64,
    /// Per-slot success probability of the tagged node under HTs (eq. 9).
    pub p_s_i: f64,
}

/// The extended-Bianchi DCF model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DcfModel;

impl DcfModel {
    /// Evaluates every intermediate quantity for `input`.
    pub fn slot_stats(input: &ModelInput) -> SlotStats {
        let tau = 2.0 / (f64::from(input.cw.get()) + 1.0);
        let c = input.contenders as i32;
        // Eq. (6): at least one of the c+1 stations transmits.
        let p_tr = 1.0 - (1.0 - tau).powi(c + 1);
        // Eq. (7): exactly one transmits, conditioned on someone doing so.
        // The clamp absorbs the last-ulp excess of τ/(1−(1−τ)) at c = 0.
        let p_s = if p_tr > 0.0 {
            ((c as f64 + 1.0) * tau * (1.0 - tau).powi(c) / p_tr).min(1.0)
        } else {
            0.0
        };
        let t_s = input.phy.success_duration(input.payload_bytes, input.rate);
        let t_c = input
            .phy
            .collision_duration(input.payload_bytes, input.rate);
        let t0 = input.phy.slot().as_secs_f64();
        let e_slot = (1.0 - p_tr) * t0
            + p_tr * p_s * t_s.as_secs_f64()
            + p_tr * (1.0 - p_s) * t_c.as_secs_f64();
        // A hidden terminal's own slot: it hears neither the tagged cell
        // nor (in the paper's topologies) other HTs, so its slots are
        // empty σ-slots except when it transmits itself. In the
        // homogeneous case (paper eq. 9) the HT mirrors the tagged node;
        // a heterogeneous profile gives it its own window and frame size.
        let (tau_ht, t_i) = match input.hidden_profile {
            None => (tau, t_s),
            Some(p) => (
                2.0 / (f64::from(p.cw) + 1.0),
                input.phy.success_duration(p.payload_bytes, input.rate),
            ),
        };
        let e_slot_ht = (1.0 - tau_ht) * t0 + tau_ht * t_i.as_secs_f64();
        // The vulnerability window spans the tagged frame plus one hidden
        // frame before it: T_s + T_i.
        let k = (t_s.as_secs_f64() + t_i.as_secs_f64()) / e_slot_ht;
        let h = input.hidden as f64;
        let p_s_i = tau * (1.0 - tau).powi(c) * (1.0 - tau_ht).powf(h * k);
        SlotStats {
            tau,
            p_tr,
            p_s,
            t_s,
            t_c,
            e_slot,
            e_slot_ht,
            k,
            p_s_i,
        }
    }

    /// Eq. (5): per-node saturated goodput of the tagged station, in
    /// bits per second.
    pub fn per_node_goodput(input: &ModelInput) -> f64 {
        let stats = Self::slot_stats(input);
        stats.p_s_i * f64::from(input.payload_bytes) * 8.0 / stats.e_slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(cw: u32, contenders: usize, hidden: usize, payload: u32) -> ModelInput {
        ModelInput {
            phy: PhyTiming::dsss(),
            rate: Rate::Mbps11,
            cw: NonZeroU32::new(cw).unwrap(),
            contenders,
            hidden,
            payload_bytes: payload,
            hidden_profile: None,
        }
    }

    #[test]
    fn tau_formula() {
        let s = DcfModel::slot_stats(&input(63, 4, 0, 1000));
        assert!((s.tau - 2.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn single_station_never_collides() {
        let s = DcfModel::slot_stats(&input(63, 0, 0, 1000));
        assert!((s.p_s - 1.0).abs() < 1e-12, "p_s = {}", s.p_s);
        assert!((s.p_tr - s.tau).abs() < 1e-12);
    }

    #[test]
    fn probabilities_are_probabilities() {
        for cw in [15, 63, 255, 1023] {
            for c in [0, 1, 4, 9] {
                for h in [0, 3, 7] {
                    let s = DcfModel::slot_stats(&input(cw, c, h, 800));
                    for (name, v) in [
                        ("tau", s.tau),
                        ("p_tr", s.p_tr),
                        ("p_s", s.p_s),
                        ("p_s_i", s.p_s_i),
                    ] {
                        assert!(
                            (0.0..=1.0).contains(&v),
                            "{name} = {v} at cw={cw} c={c} h={h}"
                        );
                    }
                    assert!(s.e_slot > 0.0 && s.k > 0.0);
                }
            }
        }
    }

    #[test]
    fn hidden_terminals_reduce_goodput() {
        let base = DcfModel::per_node_goodput(&input(63, 4, 0, 1000));
        let mut prev = base;
        for h in 1..6 {
            let s = DcfModel::per_node_goodput(&input(63, 4, h, 1000));
            assert!(s < prev, "goodput must fall with each extra HT (h = {h})");
            prev = s;
        }
        assert!(
            prev < 0.5 * base,
            "5 HTs should cost more than half the goodput"
        );
    }

    #[test]
    fn goodput_without_ht_grows_with_payload() {
        // Ideal channel: bigger frames amortize overhead monotonically.
        let mut prev = 0.0;
        for payload in (100..=2200).step_by(100) {
            let s = DcfModel::per_node_goodput(&input(63, 4, 0, payload));
            assert!(s > prev, "payload {payload}");
            prev = s;
        }
    }

    #[test]
    fn goodput_with_many_hts_has_interior_optimum() {
        // The paper's Fig. 2/7 signature: with HTs, moderate payloads beat
        // both tiny and maximal ones.
        let sweep: Vec<f64> = (1..=22)
            .map(|i| DcfModel::per_node_goodput(&input(255, 4, 3, i * 100)))
            .collect();
        let best = sweep.iter().cloned().fold(f64::MIN, f64::max);
        let first = sweep[0];
        let last = *sweep.last().unwrap();
        assert!(
            best > first && best > last,
            "optimum must be interior: {sweep:?}"
        );
    }

    #[test]
    fn larger_window_helps_under_hts() {
        // Section VI-B: "when the number of HTs increases, CW size should
        // be set to the maximum value".
        let small = DcfModel::per_node_goodput(&input(63, 4, 5, 1000));
        let large = DcfModel::per_node_goodput(&input(1023, 4, 5, 1000));
        assert!(
            large > small,
            "W=1023 {large} must beat W=63 {small} with 5 HTs"
        );
    }

    #[test]
    fn small_window_wins_without_hts() {
        // Without HTs a huge window just wastes idle slots.
        let small = DcfModel::per_node_goodput(&input(63, 4, 0, 1000));
        let large = DcfModel::per_node_goodput(&input(1023, 4, 0, 1000));
        assert!(small > large);
    }

    #[test]
    fn aggregate_is_plausible_fraction_of_rate() {
        // 5 saturated stations at 11 Mbps, 1000-byte frames, long
        // preamble: aggregate in the low-megabit range, below the rate.
        let s = 5.0 * DcfModel::per_node_goodput(&input(63, 4, 0, 1000));
        assert!(s > 3e6 && s < 8e6, "aggregate = {s}");
    }

    /// The smallest window the type admits transmits in every slot:
    /// `τ = 1`, so a lone station always succeeds and any contender
    /// always collides — and goodput stays finite.
    #[test]
    fn smallest_window_is_well_defined() {
        let alone = DcfModel::slot_stats(&input(1, 0, 0, 1000));
        assert_eq!((alone.tau, alone.p_tr, alone.p_s), (1.0, 1.0, 1.0));
        assert_eq!(alone.p_s_i, 1.0);
        let crowded = DcfModel::slot_stats(&input(1, 4, 2, 1000));
        assert_eq!((crowded.p_tr, crowded.p_s, crowded.p_s_i), (1.0, 0.0, 0.0));
        let goodput = DcfModel::per_node_goodput(&input(1, 0, 0, 1000));
        assert!(goodput.is_finite() && goodput > 0.0);
    }

    #[test]
    fn heterogeneous_hts_do_not_reward_our_window_growth() {
        // With hidden terminals that are stock DCF stations (CW_min = 31,
        // 1000-byte frames), growing OUR window no longer slows the HTs
        // down, so the survival term must not improve.
        let mk = |cw| ModelInput {
            hidden_profile: Some(HiddenProfile {
                cw: 31,
                payload_bytes: 1000,
            }),
            ..input(cw, 1, 1, 1000)
        };
        let small = DcfModel::slot_stats(&mk(63));
        let large = DcfModel::slot_stats(&mk(1023));
        let surv_small = small.p_s_i / (small.tau * (1.0 - small.tau));
        let surv_large = large.p_s_i / (large.tau * (1.0 - large.tau));
        assert!(
            (surv_small - surv_large).abs() < 1e-9,
            "survival must be window-independent: {surv_small} vs {surv_large}"
        );
        // And the small window yields more goodput (it simply sends more).
        assert!(DcfModel::per_node_goodput(&mk(63)) > DcfModel::per_node_goodput(&mk(1023)));
    }

    #[test]
    fn homogeneous_profile_matches_explicit_mirror() {
        let implicit = input(255, 4, 3, 900);
        let explicit = ModelInput {
            hidden_profile: Some(HiddenProfile {
                cw: 255,
                payload_bytes: 900,
            }),
            ..implicit
        };
        let a = DcfModel::per_node_goodput(&implicit);
        let b = DcfModel::per_node_goodput(&explicit);
        assert!((a - b).abs() / a < 1e-12, "{a} vs {b}");
    }
}
