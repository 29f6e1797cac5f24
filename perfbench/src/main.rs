//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload produce|serve_hot|serve_sharded_rw --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds every input from `--seed`, sets the workload up several times
//! (the median CPU time is `setup_s`), measures for `--seconds`, checks
//! every output, and prints a report followed by one JSON line: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics (from
//! spans and replays around each layer's public calls) with `--trace 1`.
//! Scratch stores live under `perfbench/.work/` and are removed at the
//! end; the report and the spans are kept in `perfbench/.work/results/`.

mod inputs;
mod produce;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use report::{Outcome, Setup};
use trace::Tracer;

/// Set-ups per run; `setup_s` is the median of their CPU times.
const SETUP_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["produce", "serve_hot", "serve_sharded_rw"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over the library and benchmark sources: identifies the code
/// measured in a checkout without git metadata, where there is no commit.
fn source_fingerprint(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            let name = e.file_name();
            if name == "target" || name.to_string_lossy().starts_with('.') {
                continue;
            }
            if p.is_dir() {
                walk(&p, files);
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "lock")
            {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("perfbench"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in std::fs::read(f).unwrap_or_default() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x} over {} files", files.len())
}

fn provenance(args: &Args, root: &Path) -> Vec<(String, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    vec![
        ("workload".into(), args.workload.clone()),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), u8::from(args.trace).to_string()),
        ("host.nproc".into(), inputs::threads().to_string()),
        ("host.cpu".into(), cpu),
        (
            "host.rustc".into(),
            command_line(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into()),
        ),
        (
            "commit".into(),
            if root.join(".git").exists() {
                command_line("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"])
                    .unwrap_or_else(|| "unknown".into())
            } else {
                format!(
                    "none (not a git checkout; sources {})",
                    source_fingerprint(root)
                )
            },
        ),
    ]
}

/// Runs `setup` `SETUP_REPS` times, each in its own directory with
/// fresh layer metrics, keeping the last state; `close` tears an
/// earlier one down. Records each set-up's wall and CPU seconds.
fn repeated<S>(
    work: &Path,
    mut setup: impl FnMut(&Path, &mut inputs::Layers) -> S,
    close: impl Fn(S),
) -> (S, Setup, PathBuf) {
    let (mut times, mut cpu) = (Vec::new(), Vec::new());
    let mut kept = None;
    let mut layers = inputs::Layers::new();
    for rep in 0..SETUP_REPS {
        let dir = inputs::fresh_dir(work.join(format!("setup{rep}")));
        layers.clear();
        let (t0, c0) = (Instant::now(), stats::cpu_s());
        let state = setup(&dir, &mut layers);
        times.push(t0.elapsed().as_secs_f64());
        cpu.push(stats::cpu_s() - c0);
        if let Some((old, old_dir)) = kept.replace((state, dir)) {
            close(old);
            let _ = std::fs::remove_dir_all(old_dir);
        }
    }
    let (state, dir) = kept.expect("at least one set-up");
    (
        state,
        Setup {
            times_s: times,
            cpu_s: cpu,
            layers,
        },
        dir,
    )
}

fn run(args: &Args) -> Result<String, String> {
    let bench_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = bench_dir
        .parent()
        .ok_or("benchmark has no parent directory")?
        .to_path_buf();
    let work = bench_dir.join(".work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let tracer = Tracer::new(args.trace);
    let mut outcome: Outcome = match args.workload.as_str() {
        "produce" => {
            let (state, setup, dir) = repeated(
                &work,
                |d, layers| produce::setup(args.seed, d, &tracer, layers),
                drop,
            );
            produce::run(&state, setup, args.seconds, &dir, &tracer)
        }
        name => {
            let spec = if name == "serve_hot" {
                &serve::HOT
            } else {
                &serve::SHARDED_RW
            };
            let (state, setup, dir) = repeated(
                &work,
                |d, layers| serve::setup(spec, args.seed, d, &tracer, layers),
                serve::State::close,
            );
            serve::run(state, setup, args.seconds, &dir, &tracer)
        }
    };
    let results = bench_dir.join(".work").join("results");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if args.trace {
        let _ = std::fs::create_dir_all(&results);
        let _ = tracer.write_tsv(&results.join(format!("{stem}-spans.tsv")));
        let breakdown = trace::breakdown(&tracer.spans());
        outcome
            .layers
            .insert("untraced_share", breakdown.untraced_share);
        outcome.info.extend(breakdown.render());
    }
    let text = report::emit(
        &outcome,
        args.trace,
        &provenance(args, &root),
        &results.join(format!("{stem}.txt")),
    );
    let _ = std::fs::remove_dir_all(&work);
    text
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(text) => println!("{text}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
