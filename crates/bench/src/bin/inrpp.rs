//! The unified experiment CLI: every paper artifact and ablation behind
//! one binary, with a worker-pool `--threads` knob and machine-readable
//! output — results are byte-identical at any thread count.
//!
//! ```text
//! inrpp list
//! inrpp run <experiment>... [--threads N] [--format table|csv|json]
//!                           [--quick] [--seeds N] [--out DIR]
//! inrpp run all --quick --threads 8
//! inrpp serve [--listen ADDR] [--workers N]
//! ```
//!
//! Examples:
//!
//! ```text
//! inrpp run table1                        # Table 1, all cores
//! inrpp run table1 --threads 1            # same bytes, one core
//! inrpp run fig4a --seeds 8 --format csv  # seed-aggregated Fig. 4a as CSV
//! inrpp run export-topologies --out data  # write the nine .topo files
//! ```

use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

use inrpp_bench::sweeps::{self, OutputFormat, SweepOptions};
use inrpp_runner::{run_sweep, RunnerConfig, SweepSpec};

const USAGE: &str = "\
usage: inrpp <command>

commands:
  list                       show every experiment id with a description
  run <experiment>...        run one or more sweeps (or 'all')
      --threads N            worker threads (default: all cores; results
                             are byte-identical for every N)
      --format table|csv|json  output format (default: table)
      --quick                short-horizon configuration where available
      --seeds N              aggregate Fig. 4a over N derived seeds
      --out DIR              write sweep artifacts (.topo files, CDF dumps)
                             a sweep that panics is reported on stderr and
                             skipped; the others still run, and the exit
                             code is then 1
  serve                      service mode: the multi-session daemon speaking
                             line-delimited JSON — open/feed/advance/snapshot/
                             checkpoint/resume steppable sessions on either
                             engine (see the inrpp-server crate docs for the
                             protocol and determinism contract)
      --listen ADDR          serve many clients over a socket instead of
                             stdio: a TCP bind address ('127.0.0.1:0' picks
                             a free port; the bound address is announced as
                             a {\"event\":\"listening\"} line on stdout) or
                             'unix:PATH' for a Unix-domain socket
      --workers N            simulation-worker slots — how many sessions may
                             compute concurrently (default: all cores; replies
                             are byte-identical for every N)
  help                       this text
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            print!("{}", sweeps::render_experiment_list());
            ExitCode::SUCCESS
        }
        Some("run") => run(&args[1..]),
        Some("serve") => match serve(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("inrpp serve: {e}");
                ExitCode::FAILURE
            }
        },
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("inrpp: unknown command '{other}'\n");
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Parsed `inrpp run` invocation.
struct RunArgs {
    experiments: Vec<String>,
    threads: usize,
    format: OutputFormat,
    opts: SweepOptions,
    out_dir: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut experiments = Vec::new();
    let mut threads = RunnerConfig::default().threads;
    let mut format = OutputFormat::Table;
    let mut opts = SweepOptions::default();
    let mut out_dir = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => {
                threads = value_of(&mut it, "--threads")?
                    .parse()
                    .map_err(|_| "--threads takes a positive integer".to_string())?;
            }
            "--format" => {
                format = value_of(&mut it, "--format")?.parse()?;
            }
            "--seeds" => {
                opts.seeds = value_of(&mut it, "--seeds")?
                    .parse()
                    .map_err(|_| "--seeds takes a positive integer".to_string())?;
            }
            "--out" => out_dir = Some(value_of(&mut it, "--out")?.to_string()),
            "--quick" => opts.quick = true,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag '{flag}'"));
            }
            id => experiments.push(id.to_string()),
        }
    }
    if experiments.is_empty() {
        return Err("nothing to run: name an experiment or 'all' (try 'inrpp list')".to_string());
    }
    Ok(RunArgs {
        experiments,
        threads,
        format,
        opts,
        out_dir,
    })
}

fn value_of<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// `inrpp serve [--listen ADDR] [--workers N]`: stdio by default, the
/// socket daemon with `--listen`.
fn serve(args: &[String]) -> Result<(), String> {
    use inrpp_server::{Daemon, DaemonConfig, SocketTransport, StdioTransport, Transport};
    let mut listen: Option<String> = None;
    let mut workers = DaemonConfig::default().workers;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--listen" => listen = Some(value_of(&mut it, "--listen")?.to_string()),
            "--workers" => {
                workers = value_of(&mut it, "--workers")?
                    .parse()
                    .map_err(|_| "--workers takes a positive integer".to_string())?;
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let daemon = Daemon::new(DaemonConfig { workers });
    match listen {
        None => {
            let mut transport = StdioTransport::new();
            daemon.serve(&mut transport).map_err(|e| e.to_string())
        }
        Some(spec) => {
            let mut transport = SocketTransport::bind(&spec)
                .map_err(|e| format!("cannot listen on {spec:?}: {e}"))?;
            // announce the bound address (crucial for ':0' port picks)
            // on stdout so drivers can discover where to connect
            let addr = transport.local_addr().unwrap_or(spec);
            use std::io::Write as _;
            let mut stdout = std::io::stdout();
            let _ = writeln!(
                stdout,
                "{{\"event\":\"listening\",\"addr\":\"{}\",\"workers\":{workers}}}",
                addr.replace('\\', "\\\\").replace('"', "\\\"")
            );
            let _ = stdout.flush();
            daemon.serve(&mut transport).map_err(|e| e.to_string())
        }
    }
}

fn run(args: &[String]) -> ExitCode {
    let parsed = match parse_run(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("inrpp run: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut jobs: Vec<(String, SweepSpec)> = Vec::new();
    for id in &parsed.experiments {
        if id == "all" {
            for e in sweeps::EXPERIMENTS {
                jobs.push((
                    e.id.to_string(),
                    sweeps::build(e.id, &parsed.opts).expect("registry id"),
                ));
            }
        } else if let Some(spec) = sweeps::build(id, &parsed.opts) {
            jobs.push((id.clone(), spec));
        } else {
            eprintln!("inrpp run: unknown experiment '{id}' (try 'inrpp list')");
            return ExitCode::FAILURE;
        }
    }
    let failures = run_jobs(&jobs, &parsed, &mut std::io::stdout().lock());
    if failures > 0 {
        eprintln!("\n{failures} experiment(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Run every job in order, printing each report to `out` as it
/// completes. A sweep that panics is reported on stderr and skipped, so
/// one broken experiment never costs the others; returns how many
/// panicked.
fn run_jobs(jobs: &[(String, SweepSpec)], parsed: &RunArgs, out: &mut dyn Write) -> usize {
    let many = jobs.len() > 1;
    let mut failures = 0;
    let mut printed = 0;
    let mut json_reports = Vec::new();
    for (id, spec) in jobs {
        let Ok(report) = catch_unwind(AssertUnwindSafe(|| {
            run_sweep(
                spec,
                &RunnerConfig {
                    threads: parsed.threads,
                },
            )
        })) else {
            failures += 1;
            eprintln!("[{id}] experiment panicked; continuing with the rest");
            continue;
        };
        if parsed.format == OutputFormat::Json {
            json_reports.push(report.to_json());
        } else {
            let mut text = String::new();
            if many {
                if printed > 0 {
                    text.push('\n');
                }
                if parsed.format == OutputFormat::Csv {
                    text.push_str(&format!("# {id}\n"));
                } else {
                    let rule = "=".repeat(60usize.saturating_sub(id.len()));
                    text.push_str(&format!("=== {id} {rule}\n\n"));
                }
            }
            text.push_str(&sweeps::render(&report, parsed.format));
            printed += 1;
            out.write_all(text.as_bytes())
                .and_then(|()| out.flush())
                .expect("write report to stdout");
        }
        if let Some(dir) = &parsed.out_dir {
            if !report.artifacts.is_empty() {
                sweeps::write_artifacts(&report, std::path::Path::new(dir));
            }
        }
    }
    if !json_reports.is_empty() {
        let json = if many {
            format!("[{}]\n", json_reports.join(","))
        } else {
            format!("{}\n", json_reports[0])
        };
        out.write_all(json.as_bytes())
            .expect("write report to stdout");
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use inrpp_runner::CellOutput;

    fn stand_in(id: &str, panics: bool) -> SweepSpec {
        let title = format!("{id} title");
        let mut spec = SweepSpec::new(id, &title, ["cell"]);
        spec.push_cell("only", move |_| {
            assert!(!panics, "stand-in sweep panics on purpose");
            CellOutput::new().with_row(["ran"])
        });
        spec
    }

    #[test]
    fn a_panicking_sweep_is_skipped_and_counted() {
        let jobs = vec![
            ("boom".to_string(), stand_in("boom", true)),
            ("fine".to_string(), stand_in("fine", false)),
        ];
        for format in [OutputFormat::Table, OutputFormat::Csv, OutputFormat::Json] {
            let parsed = RunArgs {
                experiments: Vec::new(),
                threads: 1,
                format,
                opts: SweepOptions::default(),
                out_dir: None,
            };
            let mut out = Vec::new();
            assert_eq!(run_jobs(&jobs, &parsed, &mut out), 1, "{format:?}");
            let out = String::from_utf8(out).expect("utf8");
            assert!(!out.contains("boom"), "{format:?}: {out}");
            assert!(out.contains("ran"), "{format:?}: {out}");
            let head = match format {
                OutputFormat::Table => "=== fine ",
                OutputFormat::Csv => "# fine\n",
                OutputFormat::Json => "[{\"experiment\":\"fine\"",
            };
            assert!(out.starts_with(head), "{format:?}: {out}");
        }
    }
}
