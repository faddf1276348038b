//! CLI: `zerodev-lint [--root DIR] [--json PATH] [--dot PATH]`
//!
//! Scans `crates/*/src/**/*.rs` under the workspace root (the lint crate
//! itself excluded — its docs quote waiver syntax), runs the two
//! analysis passes, prints a summary, and exits nonzero when any
//! un-waived finding remains. `--json` / `--dot` write the machine
//! artifacts CI uploads.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use zerodev_lint::{analyze, SourceFile, Workspace};

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json: Option<PathBuf> = None;
    let mut dot: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match a.as_str() {
            "--root" => root = PathBuf::from(val("--root")),
            "--json" => json = Some(PathBuf::from(val("--json"))),
            "--dot" => dot = Some(PathBuf::from(val("--dot"))),
            "--help" | "-h" => {
                println!("usage: zerodev-lint [--root DIR] [--json PATH] [--dot PATH]");
                return ExitCode::SUCCESS;
            }
            other => die(&format!("unknown argument `{other}`")),
        }
    }

    let ws = match load_workspace(&root) {
        Ok(ws) => ws,
        Err(e) => die(&format!("cannot load workspace at {}: {e}", root.display())),
    };
    if ws.files.is_empty() {
        die(&format!(
            "no crates/*/src/**/*.rs found under {} — wrong --root?",
            root.display()
        ));
    }
    let report = analyze(&ws);
    print!("{}", report.render_text());
    if let Some(p) = json {
        write_artifact(&p, &report.to_json());
    }
    if let Some(p) = dot {
        write_artifact(&p, &report.to_dot());
    }
    if report.unwaived().count() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn die(msg: &str) -> ! {
    eprintln!("zerodev-lint: {msg}");
    std::process::exit(2);
}

fn write_artifact(path: &Path, content: &str) {
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(path, content) {
        die(&format!("cannot write {}: {e}", path.display()));
    }
}

/// Collects every non-test source file of every workspace crate except
/// the lint crate itself. Crate identity is the `crates/<name>` directory
/// name (matching the determinism pass's crate list).
fn load_workspace(root: &Path) -> std::io::Result<Workspace> {
    let mut ws = Workspace::default();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let name = dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if name == "lint" {
            continue;
        }
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs(&src, &name, root, &mut ws)?;
        }
    }
    ws.files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(ws)
}

fn collect_rs(dir: &Path, krate: &str, root: &Path, ws: &mut Workspace) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, krate, root, ws)?;
        } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .into_owned();
            ws.files.push(SourceFile {
                krate: krate.to_string(),
                path: rel,
                text: std::fs::read_to_string(&p)?,
            });
        }
    }
    Ok(())
}
