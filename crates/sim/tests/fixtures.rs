//! The event-coverage check on recorded traces: fed the events of the
//! golden traces under `tests/golden/` at the workspace root, it names
//! exactly the variants that neither trace holds. A check that missed a
//! variant would let `every_event_variant_is_emitted` pass over an event
//! that nothing emits.

mod event_coverage;

use std::fs;
use std::path::Path;

use comap_sim::observe::parse_jsonl_line;
use event_coverage::{unemitted, VARIANTS};

#[test]
fn event_completeness_fixture_is_fully_detected() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let mut events = Vec::new();
    for file in ["fig02_quick.jsonl", "fig08_quick.jsonl"] {
        let text = fs::read_to_string(golden.join(file)).unwrap();
        for line in text.lines() {
            let (_, event) = parse_jsonl_line(line).unwrap();
            events.push(event);
        }
    }
    assert_eq!(unemitted(&events), vec!["frame_dropped", "et_abandon"]);
    assert_eq!(unemitted(&events[..0]), VARIANTS.to_vec());
}
