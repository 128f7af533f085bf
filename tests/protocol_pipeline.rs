//! Cross-crate integration: the full CO-MAP decision pipeline from
//! positions to transmission settings, exercised through the umbrella
//! crate's public API.

use comap::core::{CoMapError, Protocol, ProtocolConfig};
use comap::radio::Position;

/// A two-cell network with one of everything: contender, hidden terminal,
/// independent node.
fn populated() -> Protocol<&'static str> {
    let mut p = Protocol::new("me", ProtocolConfig::testbed());
    p.set_own_position(Position::new(0.0, 0.0));
    p.on_position_report("myap", Position::new(18.0, 0.0));
    p.on_position_report("contender", Position::new(14.0, 4.0));
    p.on_position_report("hidden", Position::new(43.0, 0.0));
    p.on_position_report("independent", Position::new(120.0, 0.0));
    p.on_position_report("far_src", Position::new(140.0, 0.0));
    p
}

#[test]
fn census_classifies_the_menagerie() {
    let p = populated();
    let census = p.ht_census("myap").unwrap();
    assert!(census.hidden.contains(&"hidden"), "census = {census:?}");
    assert!(
        census.contenders.contains(&"contender"),
        "census = {census:?}"
    );
    assert!(
        census.independent.contains(&"independent"),
        "census = {census:?}"
    );
}

#[test]
fn settings_react_to_the_census() {
    let p = populated();
    let with_ht = p.tx_setting("myap").unwrap();
    // Remove the hidden terminal: payload must not shrink further.
    let mut calm = populated();
    calm.on_position_report("hidden", Position::new(500.0, 0.0));
    let without = calm.tx_setting("myap").unwrap();
    assert!(with_ht.payload_bytes <= without.payload_bytes);
}

#[test]
fn concurrency_pipeline_uses_and_fills_the_cache() {
    let mut p = populated();
    // A remote link is concurrent-safe.
    let ok = p
        .concurrency_allowed(("independent", "far_src"), "myap")
        .unwrap();
    assert!(ok, "remote cells must validate");
    let (h0, m0) = p.cooccurrence().stats();
    assert_eq!((h0, m0), (0, 1));
    // Second query is a cache hit.
    let again = p
        .concurrency_allowed(("independent", "far_src"), "myap")
        .unwrap();
    assert!(again);
    assert_eq!(p.cooccurrence().stats(), (1, 1));
    // Failure feedback flips the verdict.
    p.record_concurrency_outcome(("independent", "far_src"), "myap", false);
    assert!(!p
        .concurrency_allowed(("independent", "far_src"), "myap")
        .unwrap());
}

#[test]
fn errors_surface_for_unknown_nodes() {
    let mut p = populated();
    assert_eq!(
        p.concurrency_allowed(("ghost", "far_src"), "myap"),
        Err(CoMapError::UnknownNeighbor("ghost"))
    );
    assert!(p.ht_census("ghost").is_err());
}

#[test]
fn mobility_threshold_gates_cache_invalidation() {
    let mut p = populated();
    let _ = p
        .concurrency_allowed(("independent", "far_src"), "myap")
        .unwrap();
    assert_eq!(p.cooccurrence().len(p.neighbors()), 1);
    // Sub-threshold jiggle keeps the cache.
    assert!(!p.on_position_report("independent", Position::new(121.0, 0.0)));
    assert_eq!(p.cooccurrence().len(p.neighbors()), 1);
    // A real move drops entries involving the mover.
    assert!(p.on_position_report("independent", Position::new(60.0, 0.0)));
    assert_eq!(p.cooccurrence().len(p.neighbors()), 0);
}

#[test]
fn scheduler_is_derivable_from_config() {
    let p = populated();
    let sched = p.arm_scheduler(comap::radio::units::Dbm::new(-70.0));
    use comap::core::EtAction;
    assert_eq!(
        sched.on_rssi(comap::radio::units::Dbm::new(-70.0)),
        EtAction::Continue
    );
    assert_eq!(
        sched.on_rssi(comap::radio::units::Dbm::new(-60.0)),
        EtAction::Abandon
    );
}
