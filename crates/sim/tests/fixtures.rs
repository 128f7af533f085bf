//! The event-coverage check on recorded traces: fed the `type` of each
//! line of the golden traces under `tests/golden/` at the workspace
//! root, it names exactly the variants that neither trace holds. A
//! check that missed a variant would let `every_event_variant_is_emitted`
//! pass over an event that nothing emits.

mod event_coverage;

use std::fs;
use std::path::Path;

use comap_sim::Json;
use event_coverage::{unemitted, VARIANTS};

#[test]
fn event_completeness_fixture_is_fully_detected() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let mut types = Vec::new();
    for file in ["fig02_quick.jsonl", "fig08_quick.jsonl"] {
        let text = fs::read_to_string(golden.join(file)).unwrap();
        for line in text.lines() {
            let value = Json::parse(line).unwrap();
            types.push(value.get("type").and_then(Json::as_str).unwrap().to_owned());
        }
    }
    assert_eq!(
        unemitted(types.iter().map(String::as_str)),
        vec!["frame_dropped", "et_abandon"]
    );
    assert_eq!(unemitted([]), VARIANTS.to_vec());
}
