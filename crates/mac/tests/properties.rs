//! Property-based tests for MAC primitives: the selective-repeat ARQ must
//! deliver every frame exactly once under arbitrary loss patterns, and
//! frame durations must be consistent across sizes and rates.

use comap_mac::arq::{SelectiveRepeatReceiver, SelectiveRepeatSender};
use comap_mac::backoff::{Backoff, BackoffPolicy};
use comap_mac::timing::PhyTiming;
use comap_radio::rates::Rate;
use proptest::prelude::*;

proptest! {
    /// Drive the ARQ through an arbitrary data-loss / ack-loss schedule;
    /// every enqueued frame must eventually be delivered exactly once.
    #[test]
    fn arq_delivers_everything_exactly_once(
        window in 1usize..16,
        frames in 1usize..40,
        losses in prop::collection::vec((any::<bool>(), any::<bool>()), 0..2000),
    ) {
        let mut tx = SelectiveRepeatSender::new(window);
        let mut rx = SelectiveRepeatReceiver::new();
        let mut enqueued = 0usize;
        let mut unique_rx = 0usize;
        let mut loss_iter = losses.into_iter().chain(std::iter::repeat((false, false)));

        // Safety bound: with loss exhausted, everything must drain.
        for _ in 0..20_000 {
            while enqueued < frames && tx.enqueue(64).is_some() {
                enqueued += 1;
            }
            let Some(seq) = tx.next_to_send() else {
                if enqueued == frames && tx.outstanding() == 0 {
                    break;
                }
                continue;
            };
            let (lose_data, lose_ack) = loss_iter.next().unwrap();
            tx.mark_sent(seq).unwrap();
            if !lose_data {
                if rx.on_frame(seq) {
                    unique_rx += 1;
                }
                if !lose_ack {
                    tx.on_ack(rx.ack());
                }
            }
        }
        prop_assert_eq!(enqueued, frames);
        prop_assert_eq!(unique_rx, frames, "receiver saw each frame once");
        prop_assert_eq!(tx.delivered(), frames as u64);
        prop_assert_eq!(tx.outstanding(), 0);
    }

    /// Receiver ACKs always acknowledge exactly the set of frames it has.
    #[test]
    fn ack_reflects_received_set(seqs in prop::collection::btree_set(0u64..80, 0..40)) {
        let mut rx = SelectiveRepeatReceiver::new();
        for &s in &seqs {
            rx.on_frame(s);
        }
        let ack = rx.ack();
        for s in 0..100u64 {
            let within_bitmap = s < ack.base + 64;
            if within_bitmap {
                prop_assert_eq!(ack.acknowledges(s), seqs.contains(&s), "seq {}", s);
            }
        }
    }

    #[test]
    fn backoff_consume_is_exact(start in 0u32..2048, steps in prop::collection::vec(0u32..64, 0..128)) {
        let mut b = Backoff::from_slots(start);
        let mut consumed_total = 0u32;
        for s in steps {
            consumed_total += b.consume(s);
        }
        prop_assert_eq!(consumed_total + b.slots_remaining(), start);
    }

    #[test]
    fn beb_window_is_monotone_in_retries(retries in 0u32..20) {
        let p = BackoffPolicy::DSSS_DEFAULT;
        prop_assert!(p.window(retries + 1) >= p.window(retries));
    }

    #[test]
    fn frame_duration_monotone_in_size(bytes in 1u32..2400) {
        for phy in [PhyTiming::dsss(), PhyTiming::erp_ofdm()] {
            let rate = phy.control_rate();
            let d1 = phy.frame_duration(bytes, rate);
            let d2 = phy.frame_duration(bytes + 1, rate);
            prop_assert!(d2 >= d1);
            prop_assert!(d1 > phy.plcp_overhead());
        }
    }

    #[test]
    fn faster_rates_never_take_longer(bytes in 1u32..2400) {
        let phy = PhyTiming::dsss();
        let mut rates = Rate::DSSS_ALL.to_vec();
        rates.sort();
        for w in rates.windows(2) {
            prop_assert!(phy.frame_duration(bytes, w[0]) >= phy.frame_duration(bytes, w[1]));
        }
    }
}
