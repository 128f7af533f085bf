//! Cross-crate integration: the full CO-MAP decision pipeline from
//! positions to transmission settings, exercised through the umbrella
//! crate's public API.

use std::sync::Arc;

use comap::core::hidden::HtCensusEngine;
use comap::core::{CoMapError, HtCensus, NeighborClass, Protocol, ProtocolConfig};
use comap::experiments::topology::scale_campus;
use comap::radio::Position;
use comap::sim::MacFeatures;

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

/// The census of `me → receiver` over `p`'s table with every neighbor
/// through `classify`: the reference the distance-decided census must
/// reproduce.
fn brute_force_census(
    engine: &HtCensusEngine,
    p: &Protocol<usize>,
    receiver: usize,
) -> HtCensus<usize> {
    let (me, rx) = (
        p.neighbors().position(p.addr()).unwrap(),
        p.neighbors().position(receiver).unwrap(),
    );
    let mut census = HtCensus {
        hidden: Vec::new(),
        contenders: Vec::new(),
        independent: Vec::new(),
    };
    for (addr, entry) in p.neighbors().iter() {
        if addr == p.addr() || addr == receiver {
            continue;
        }
        match engine.classify(me, rx, entry.position) {
            NeighborClass::Hidden => census.hidden.push(addr),
            NeighborClass::Contender => census.contenders.push(addr),
            NeighborClass::Independent => census.independent.push(addr),
        }
    }
    census
}

/// The census on the scalability campus, at the start and after every
/// scheduled move: one standalone protocol per node hears every node's
/// position, and each client→AP and AP→client link's census and setting
/// equal the brute-force ones. One client in eight roams the whole
/// campus, so km-long links to its AP, whose interference range covers
/// most of the campus, are among those checked.
#[test]
fn campus_census_equals_brute_force_through_every_move() {
    let (cfg, campus) = scale_campus(200, 1, MacFeatures::COMAP, 1);
    let config = cfg.protocol;
    let engine = HtCensusEngine::new(config.reception(), config.t_cs);
    let table = Arc::new(config.adaptation_table());
    let mut nodes: Vec<Protocol<usize>> = (0..cfg.nodes.len())
        .map(|addr| Protocol::with_adaptation(addr, config, Arc::clone(&table)))
        .collect();
    let report = |nodes: &mut [Protocol<usize>], addr: usize, pos: Position| {
        for node in nodes.iter_mut() {
            node.on_position_report(addr, pos);
        }
    };
    let mut longest = 0.0f64;
    let mut check = |nodes: &[Protocol<usize>], (client, ap): (usize, usize)| {
        for (tx, rx) in [(client, ap), (ap, client)] {
            let p = &nodes[tx];
            let brute = brute_force_census(&engine, p, rx);
            assert_eq!(
                p.tx_setting(rx).unwrap(),
                p.adaptation().setting(brute.n_ht(), brute.n_contenders()),
                "link {tx} -> {rx}"
            );
            assert_eq!(p.ht_census(rx).unwrap(), brute, "link {tx} -> {rx}");
        }
        let p = &nodes[client];
        let length = p.neighbors().distance(client, ap).unwrap();
        longest = longest.max(length.value());
    };
    let links: Vec<(usize, usize)> = campus
        .associations
        .iter()
        .map(|&(client, ap)| (client.0, ap.0))
        .collect();

    for (addr, node) in cfg.nodes.iter().enumerate() {
        report(&mut nodes, addr, node.position);
    }
    for &link in &links {
        check(&nodes, link);
    }
    let mut moves: Vec<_> = (cfg.nodes.iter().enumerate())
        .flat_map(|(addr, node)| node.moves.iter().map(move |m| (m.at, addr, m.to)))
        .collect();
    moves.sort_by_key(|&(at, addr, _)| (at, addr));
    for (_, mover, to) in moves {
        report(&mut nodes, mover, to);
        let &link = links.iter().find(|&&(client, _)| client == mover).unwrap();
        check(&nodes, link);
    }
    for &link in &links {
        check(&nodes, link);
    }
    assert!(longest > 1000.0, "longest link {longest} m");
}
