//! Runs the scalability sweep (paper §VI setting): 30–150
//! random-waypoint nodes through both medium backends, printing the
//! culling speedup and asserting bit-identical reports.
//!
//! Extra flag on top of `--quick` and the instrumentation ones:
//!
//! * `--report-json=<path>` — write the `SimReport` JSON of the
//!   representative 150-node campus (400 ms, culled backend) to
//!   `<path>`. The instrumentation flags observe the same run, and the
//!   report is written without the sinks' `metrics` section, so its
//!   bytes are those of a plain run. CI runs this twice and byte-diffs
//!   the outputs as a determinism gate.

use comap_experiments::instrument::{representative, Args, Flag};
use comap_experiments::report::{mbps, Table};

fn main() {
    let args = Args::from_env("fig_scale", &[Flag::Quick, Flag::ReportJson]);
    let fig = comap_experiments::fig_scale::run(args.quick);
    let mut t = Table::new(
        "Scalability — spatial culling vs exhaustive medium (paper §VI campus)",
        &[
            "nodes",
            "exhaustive (ms)",
            "culled (ms)",
            "speedup",
            "identical",
            "aggregate goodput",
        ],
    );
    for p in &fig.points {
        t.row(&[
            format!("{}", p.n),
            format!("{:.1}", p.exhaustive_ms),
            format!("{:.1}", p.culled_ms),
            format!("{:.2}x", p.speedup()),
            format!("{}", p.identical),
            mbps(p.aggregate_bps),
        ]);
    }
    t.print();

    let inst = &args.instrumentation;
    if args.report_json.is_some() || inst.any() {
        let (cfg, duration) = representative("fig_scale");
        let report = inst.run("fig_scale", cfg, duration);
        if let Some(path) = &args.report_json {
            let text = report.to_json().to_string_compact();
            if let Err(e) = std::fs::write(path, text + "\n") {
                eprintln!("error: cannot write report {}: {e}", path.display());
                std::process::exit(1);
            }
            println!("representative report written to {}", path.display());
        }
    }
}
