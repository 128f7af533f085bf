//! `simlint` — the CO-MAP workspace linter CLI.
//!
//! See the `comap_lint` crate docs for the rule set. This binary is the
//! CI gate: it lints every library source of the workspace around the
//! current directory and exits non-zero whenever an unsuppressed finding
//! remains, including a rule whose allow count is not exactly its fixed
//! `Rule::budget`.

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use comap_lint::report::{render_human, render_json};
use comap_lint::workspace::{discover_workspace, lint_workspace};

const USAGE: &str = "\
usage: simlint [--json <path>] [--quiet]

Lints every library source of the workspace around the current
directory and holds each rule's allow count to its fixed budget.

options:
  --json <path>   also write a schema-stamped JSON report to <path>
  --quiet         print only the summary and allows lines
  -h, --help      show this help

exit status: 0 clean, 1 findings (a budget mismatch included), 2 usage or I/O error";

struct Options {
    json: Option<PathBuf>,
    quiet: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        json: None,
        quiet: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => {
                let path = it.next().ok_or("--json requires a path")?;
                opts.json = Some(PathBuf::from(path));
            }
            "--quiet" => opts.quiet = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(opts)
}

fn run(opts: &Options) -> Result<bool, String> {
    let cwd = env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    let root = discover_workspace(&cwd)
        .ok_or("no workspace root (Cargo.toml with [workspace]) above the current directory")?;
    let outcome = lint_workspace(&root).map_err(|e| format!("walking workspace: {e}"))?;

    if let Some(json_path) = &opts.json {
        if let Some(parent) = json_path.parent() {
            if !parent.as_os_str().is_empty() {
                let _ = fs::create_dir_all(parent);
            }
        }
        fs::write(json_path, render_json(&outcome))
            .map_err(|e| format!("writing {}: {e}", json_path.display()))?;
    }

    let text = render_human(&outcome);
    if opts.quiet {
        // The last two lines are the summary and the allows census.
        for line in text.lines().rev().take(2).collect::<Vec<_>>().iter().rev() {
            println!("{line}");
        }
    } else {
        print!("{text}");
    }
    Ok(outcome.findings.is_empty())
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("simlint: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("simlint: {msg}");
            ExitCode::from(2)
        }
    }
}
