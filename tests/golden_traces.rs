//! Golden-trace regression tests.
//!
//! The full JSONL event stream of one representative quick-mode run of
//! fig02 (hidden-terminal testbed) and fig08 (exposed-terminal testbed)
//! is pinned byte-for-byte under `tests/golden/`. Any change to event
//! ordering, timing, RNG consumption, medium bookkeeping, or the JSONL
//! schema shows up here as a diff against the stored trace — which is
//! exactly the point: behavioral drift must be a deliberate, reviewed
//! regeneration, never an accident.
//!
//! To regenerate after an intentional behavior change, run
//! `scripts/regen_golden.sh` (it sets `REGEN_GOLDEN=1` and re-runs this
//! test binary, which then rewrites the files instead of comparing).

use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use comap::experiments::instrument::representative;
use comap::mac::SimDuration;
use comap::sim::observe::parse_jsonl_line;
use comap::sim::{JsonlSink, Simulator};

/// `(experiment name, golden file)` — names resolve through
/// [`representative`], so the golden topology is exactly the one the
/// `--trace` instrumentation flag of that binary would run.
const GOLDEN: &[(&str, &str)] = &[
    ("fig02", "fig02_quick.jsonl"),
    ("fig08", "fig08_quick.jsonl"),
];

/// Shorter than the 400 ms instrumentation runs to keep the checked-in
/// files small, long enough that DATA/ACK cycles, backoff, map exchange
/// and (for fig02) mobility all appear in the stream.
const GOLDEN_MILLIS: u64 = 150;

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

fn regen_requested() -> bool {
    std::env::var_os("REGEN_GOLDEN").is_some()
}

/// A writer handing every byte to a shared buffer, so the trace survives
/// `Simulator::run` consuming the boxed sink.
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Runs the named experiment's representative topology for
/// [`GOLDEN_MILLIS`] with a [`JsonlSink`] attached and returns the trace.
fn trace(name: &str) -> String {
    let (cfg, _) = representative(name);
    let buf = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulator::new(cfg);
    sim.attach_sink(Box::new(JsonlSink::new(SharedBuf(Arc::clone(&buf)))));
    sim.run(SimDuration::from_millis(GOLDEN_MILLIS));
    let bytes = buf.lock().unwrap().clone();
    String::from_utf8(bytes).expect("JSONL traces are UTF-8")
}

#[test]
fn golden_traces_are_reproduced_byte_for_byte() {
    for &(name, file) in GOLDEN {
        let path = golden_path(file);
        let fresh = trace(name);
        assert!(
            fresh.lines().count() > 500,
            "{name}: a {GOLDEN_MILLIS} ms trace should hold hundreds of events, \
             got {} — the scenario is degenerate",
            fresh.lines().count()
        );

        if regen_requested() {
            std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
                .expect("create tests/golden");
            std::fs::write(&path, &fresh)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
            eprintln!(
                "regenerated {} ({} lines)",
                path.display(),
                fresh.lines().count()
            );
            continue;
        }

        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing or unreadable golden trace {}: {e}\n\
                 run scripts/regen_golden.sh to (re)create it",
                path.display()
            )
        });
        if fresh != golden {
            let divergence = fresh
                .lines()
                .zip(golden.lines())
                .position(|(f, g)| f != g)
                .unwrap_or_else(|| fresh.lines().count().min(golden.lines().count()));
            let fresh_line = fresh.lines().nth(divergence).unwrap_or("<end of trace>");
            let golden_line = golden.lines().nth(divergence).unwrap_or("<end of trace>");
            panic!(
                "{name}: trace diverged from {} at line {} \
                 (fresh {} lines vs golden {}):\n  fresh:  {fresh_line}\n  golden: {golden_line}\n\
                 if the change is intentional, regenerate with scripts/regen_golden.sh",
                path.display(),
                divergence + 1,
                fresh.lines().count(),
                golden.lines().count(),
            );
        }
    }
}

#[test]
fn golden_traces_replay_through_the_parser() {
    if regen_requested() {
        // Files may be mid-rewrite by the regen pass; the comparison
        // test above validates the fresh traces in that mode.
        return;
    }
    for &(name, file) in GOLDEN {
        let path = golden_path(file);
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden trace {}: {e}\nrun scripts/regen_golden.sh",
                path.display()
            )
        });
        let mut last_t = None;
        for (i, line) in golden.lines().enumerate() {
            let (t, _event) = parse_jsonl_line(line).unwrap_or_else(|| {
                panic!(
                    "{name}: line {} of {} does not parse back into a SimEvent: {line}",
                    i + 1,
                    path.display()
                )
            });
            if let Some(prev) = last_t {
                assert!(
                    t >= prev,
                    "{name}: timestamps must be monotone, line {} goes backwards",
                    i + 1
                );
            }
            last_t = Some(t);
        }
    }
}
