//! The `detlint` binary: scans the workspace and reports determinism,
//! hot-path-panic and unsafe-hygiene findings. See `--help`.

use detlint::{find_workspace_root, scan_workspace_with, Baseline, WorkspaceOptions, ALL_RULES};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
detlint — workspace determinism & hot-path lint engine

USAGE:
    detlint [OPTIONS]

OPTIONS:
    --root <DIR>             Workspace root (default: nearest ancestor with
                             a [workspace] Cargo.toml)
    --deny                   Exit non-zero when any un-annotated finding
                             remains (the CI gate mode)
    --json                   Print the machine-readable JSON report to stdout
    --json-out <FILE>        Write the JSON report to FILE (human text still
                             goes to stdout)
    --baseline <FILE>        Treat findings listed in FILE as grandfathered
                             (reported as `baselined`, never denied)
    --write-baseline <FILE>  Write the current denied findings to FILE as a
                             baseline, then exit 0
    --counts <FILE>          Compare per-rule finding counts against FILE
                             (the committed CI drift baseline); drift is an
                             error even when the findings are annotated
    --write-counts <FILE>    Write the current per-rule counts to FILE,
                             then exit 0
    --hot-root <PATH>        Add PATH (workspace-relative) as an extra
                             hot-path root file; repeatable
    --allows                 Also print every allowed (annotated) finding,
                             with its justification
    --list-rules             Print the rule catalogue and exit
    -h, --help               Print this help

EXIT CODES:
    0  clean (or findings present but --deny not given)
    1  --deny and at least one un-annotated, un-baselined finding,
       or --counts and the per-rule counts drifted
    2  usage or I/O error

SUPPRESSIONS (always counted and reported):
    // detlint: allow(<rule>) — <justification>        one finding, this line
                                                       (or next, if standalone)
    // detlint: allow-item(<rule>) — <justification>   the item that follows
";

struct Opts {
    root: Option<PathBuf>,
    deny: bool,
    json: bool,
    json_out: Option<PathBuf>,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
    counts: Option<PathBuf>,
    write_counts: Option<PathBuf>,
    hot_roots: Vec<String>,
    allows: bool,
}

fn parse_args() -> Result<Option<Opts>, String> {
    let mut opts = Opts {
        root: None,
        deny: false,
        json: false,
        json_out: None,
        baseline: None,
        write_baseline: None,
        counts: None,
        write_counts: None,
        hot_roots: Vec::new(),
        allows: false,
    };
    // detlint: allow(env-read) — the linter's own CLI must read argv; this
    // binary is tooling, never part of a simulation.
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let path_arg = |args: &mut dyn Iterator<Item = String>| {
            args.next()
                .map(PathBuf::from)
                .ok_or_else(|| format!("{a} requires a value"))
        };
        match a.as_str() {
            "--root" => opts.root = Some(path_arg(&mut args)?),
            "--deny" => opts.deny = true,
            "--json" => opts.json = true,
            "--json-out" => opts.json_out = Some(path_arg(&mut args)?),
            "--baseline" => opts.baseline = Some(path_arg(&mut args)?),
            "--write-baseline" => opts.write_baseline = Some(path_arg(&mut args)?),
            "--counts" => opts.counts = Some(path_arg(&mut args)?),
            "--write-counts" => opts.write_counts = Some(path_arg(&mut args)?),
            "--hot-root" => opts
                .hot_roots
                .push(path_arg(&mut args)?.to_string_lossy().into_owned()),
            "--allows" => opts.allows = true,
            "--list-rules" => {
                for r in ALL_RULES {
                    println!("({}) {:16} {}", r.family(), r.name(), r.describe());
                }
                return Ok(None);
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown argument `{other}` (see --help)")),
        }
    }
    Ok(Some(opts))
}

fn run(opts: Opts) -> Result<ExitCode, String> {
    // detlint: allow(env-read) — the linter resolves its own workspace
    // root from the invocation directory; this is tooling, not simulation.
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let root = opts
        .root
        .clone()
        .unwrap_or_else(|| find_workspace_root(&cwd));
    let mut wopts = WorkspaceOptions::default();
    wopts.hot_root_files.extend(opts.hot_roots.iter().cloned());
    let mut report = scan_workspace_with(&root, &wopts).map_err(|e| format!("scan failed: {e}"))?;

    if let Some(path) = &opts.baseline {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
        Baseline::parse(&text).apply(&mut report);
    }

    if let Some(path) = &opts.write_baseline {
        std::fs::write(path, Baseline::write(&report))
            .map_err(|e| format!("cannot write baseline {}: {e}", path.display()))?;
        eprintln!(
            "detlint: wrote {} grandfathered finding(s) to {}",
            report.deny_count(),
            path.display()
        );
        return Ok(ExitCode::SUCCESS);
    }

    if let Some(path) = &opts.write_counts {
        std::fs::write(path, report.render_counts())
            .map_err(|e| format!("cannot write counts {}: {e}", path.display()))?;
        eprintln!("detlint: wrote per-rule counts to {}", path.display());
        return Ok(ExitCode::SUCCESS);
    }

    let mut counts_drift = false;
    if let Some(path) = &opts.counts {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read counts {}: {e}", path.display()))?;
        let drift = report.check_counts(&text);
        counts_drift = !drift.is_empty();
        for line in &drift {
            eprintln!("detlint: counts drift: {line}");
        }
    }

    let json = report.render_json();
    if let Some(path) = &opts.json_out {
        std::fs::write(path, &json)
            .map_err(|e| format!("cannot write report {}: {e}", path.display()))?;
    }
    if opts.json {
        print!("{json}");
    } else {
        print!("{}", report.render_text(opts.allows));
    }

    if counts_drift || (opts.deny && report.deny_count() > 0) {
        Ok(ExitCode::FAILURE)
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(Some(opts)) => match run(opts) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("detlint: error: {e}");
                ExitCode::from(2)
            }
        },
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("detlint: error: {e}");
            ExitCode::from(2)
        }
    }
}
